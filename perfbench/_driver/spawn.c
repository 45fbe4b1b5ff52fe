/* spawn: runs commands one at a time for perfbench/run.py and reports what
   wait4 says about each.  Linux reports a child's max RSS as at least the
   RSS of the process that spawned it, and the Python benchmark's own
   (~21 MiB) is larger than a one-shot posl-check's (~6 MiB); this process
   is far smaller than either.

   One command per input line, arguments separated by tabs, run with
   stdout and stderr on /dev/null.  One output line per command:
   "exit wall_us cpu_us maxrss_kb", cpu being user + system time. */

#define _GNU_SOURCE
#include <fcntl.h>
#include <spawn.h>
#include <stdio.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

extern char **environ;

static long long us(struct timeval t) { return t.tv_sec * 1000000LL + t.tv_usec; }

int main(void) {
  static char line[1 << 16];
  char *argv[256];
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  while (fgets(line, sizeof line, stdin)) {
    int n = 0;
    line[strcspn(line, "\n")] = 0;
    for (char *t = strtok(line, "\t"); t && n < 255; t = strtok(NULL, "\t")) argv[n++] = t;
    argv[n] = NULL;
    struct timespec t0, t1;
    struct rusage ru = {0};
    pid_t pid;
    int status, code = 127;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    if (n > 0 && posix_spawn(&pid, argv[0], &fa, NULL, argv, environ) == 0
        && wait4(pid, &status, 0, &ru) == pid)
      code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    clock_gettime(CLOCK_MONOTONIC, &t1);
    printf("%d %lld %lld %ld\n", code,
           (t1.tv_sec - t0.tv_sec) * 1000000LL + (t1.tv_nsec - t0.tv_nsec) / 1000,
           us(ru.ru_utime) + us(ru.ru_stime), ru.ru_maxrss);
    fflush(stdout);
  }
  return 0;
}
