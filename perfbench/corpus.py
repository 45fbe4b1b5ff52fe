"""Seeded scale-corpus generator for the benchmark.

One family per spec file, so every file's adequate universe stays at
about five objects (query cost grows steeply with the universe).  Each
family is one of five templates, renamed per family:

  paper   the paper's cast, Examples 1-6 (Read/Write/RW/WriteAcc/Client...)
  fleet   independent components queried through ``A||B`` composites
  atm     viewpoint merge by alphabet expansion (the ATM example)
  boiten  refinements that add concrete-level actions (ACK, SYNC)
  sz      Sekerinski & Zhang: idealized vs partial vs realistic channels

Every query carries its expected status, fixed by the template it comes
from.  A family file has two editable specs, used by the watch workload:
a *trace* edit that rewrites one spec's trace set (same vocabulary) and a
*vocab* edit that renames a method (the universe changes).  A query's
expectation is therefore a 4-tuple indexed by ``2*trace_bit + vocab_bit``.
"""

import os
import random
from string import Template

OK, FAIL = 0, 1  # CLI exit codes: 0 the verdict holds, 1 it fails

# ---------------------------------------------------------------------------
# Templates.  ``$name`` placeholders are renamed per family; the trace edit
# and vocab edit select between the ``A`` and ``B`` fragments.

PAPER = dict(
    objects=["o", "c", "om"],
    methods=["OW", "CW", "OR", "CR", "W", "R", "OK", "OKB"],
    specs=["Read", "Write", "Read2", "RW", "WriteAcc", "RW2", "Client", "Client2"],
    text="""// Examples 1-6 of the paper, renamed.
spec $Read {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $R(data);
  traces all;
}
spec $Write {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $OW, $CW, $W(data);
  traces prs (bind x in Env . (<x,$o,$OW> <x,$o,$W(_)>* <x,$o,$CW>))*;
}
spec $Read2 {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $OR, $CR, $R(data);
  traces forall x in Env . prs (<x,$o,$OR> <x,$o,$R(_)>* <x,$o,$CR>)*;
}
spec $RW {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $OW, $CW, $OR, $CR, $W(data), $R(data);
  traces forall x in Env .
    prs (<x,$o,$OW> (<x,$o,$W(_)> | <x,$o,$R(_)>)* <x,$o,$CW>
        | <x,$o,$OR> <x,$o,$R(_)>* <x,$o,$CR>)*;
  traces count (#$OW - #$CW = 0 or #$OR - #$CR = 0) and #$OW - #$CW <= 1;
}
spec $WriteAcc {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $OW, $CW, $W(data);
  traces prs (bind x in Env . (<x,$o,$OW> <x,$o,$W(_)>* <x,$o,$CW>))*;
  traces prs <$c,_,_>*;
}
spec $RW2 {
  objects $o;
  sort Env = all except { $o };
  alphabet call Env -> $o : $OW, $CW, $OR, $CR, $W(data), $R(data);
  traces forall x in Env .
    prs (<x,$o,$OW> (<x,$o,$W(_)> | <x,$o,$R(_)>)* <x,$o,$CW>
        | <x,$o,$OR> <x,$o,$R(_)>* <x,$o,$CR>)*;
  traces count (#$OW - #$CW = 0 or #$OR - #$CR = 0) and #$OW - #$CW <= 1;
$TRACE}
spec $Client {
  objects $c;
  sort Env = all except { $c };
  alphabet call $c -> Env : $W(data), $OK;
  traces prs (<$c,$o,$W(_)> <$c,$om,$OK>)*;
}
spec $Client2 {
  objects $c;
  sort Env = all except { $c };
  alphabet call $c -> Env : $W(data), $VOCAB, $OW;
  traces prs (<$c,$o,$W(_)> <$c,$om,$VOCAB> <$c,$o,$OW>)*;
}
""",
    # trace edit: RW2 loses its client restriction (becomes RW)
    trace=("  traces prs <$c,_,_>*;\n", ""),
    # vocab edit: Client2 acknowledges with a method Client does not know
    vocab=("$OK", "$OKB"),
    queries=[
        # kind, names, (e00, e01, e10, e11)
        ("refine", ["Read2", "Read"], (OK, OK, OK, OK)),
        ("refine", ["Read", "Read2"], (FAIL,) * 4),
        ("refine", ["RW", "Read"], (OK,) * 4),
        ("refine", ["RW", "Write"], (OK,) * 4),
        ("refine", ["RW", "Read2"], (FAIL,) * 4),
        ("refine", ["WriteAcc", "Write"], (OK,) * 4),
        ("refine", ["RW2", "RW"], (OK,) * 4),
        ("refine", ["RW2", "WriteAcc"], (OK, OK, FAIL, FAIL)),
        ("refine", ["Client2", "Client"], (OK, FAIL, OK, FAIL)),
        ("refine", ["Client", "Client2"], (FAIL,) * 4),
        ("refine", ["Write", "RW"], (FAIL,) * 4),
        ("refine", ["Read", "Write"], (FAIL,) * 4),
        ("compose", ["Client", "WriteAcc"], (OK,) * 4),
        ("compose", ["Client2", "WriteAcc"], (OK,) * 4),
        ("compose", ["Client", "RW2"], (OK,) * 4),
        ("compose", ["Read", "Write"], (OK,) * 4),
        ("compose", ["Read2", "Write"], (OK,) * 4),
        ("proper", ["RW2", "WriteAcc", "Client"], (OK,) * 4),
        ("deadlock", ["Client", "WriteAcc"], (OK,) * 4),
        ("deadlock", ["Client2", "WriteAcc"], (FAIL,) * 4),
        ("equal", ["Read", "Read"], (OK,) * 4),
        ("equal", ["Write", "Write"], (OK,) * 4),
        ("equal", ["Client", "Client"], (OK,) * 4),
    ],
)

FLEET = dict(
    objects=["g", "l", "k"],
    methods=["SAMPLE", "OPEN", "CLOSE", "APPEND", "BEGIN", "END", "TICK", "BEAT"],
    specs=["Gauge", "GaugeR", "Gauge2", "Log", "Log2", "Clock"],
    text="""// A telemetry fleet of three components with no mutual communication.
spec $Gauge {
  objects $g;
  sort Env = all except { $g, $l, $k };
  alphabet call Env -> $g : $SAMPLE(data);
  traces all;
}
spec $GaugeR {
  objects $g;
  sort Env = all except { $g, $l, $k };
  alphabet call Env -> $g : $SAMPLE(data);
  traces prs (bind x in Env . (<x,$g,$SAMPLE(_)>))*;
}
spec $Gauge2 {
  objects $g;
  sort Env = all except { $g, $l, $k };
  alphabet call Env -> $g : $OPEN, $CLOSE, $SAMPLE(data);
$TRACE}
spec $Log {
  objects $l;
  sort Src = all except { $g, $l, $k };
  alphabet call Src -> $l : $APPEND(data);
  traces all;
}
spec $Log2 {
  objects $l;
  sort Src = all except { $g, $l, $k };
  alphabet call Src -> $l : $BEGIN, $END, $APPEND(data);
  traces prs (bind x in Src . (<x,$l,$BEGIN> <x,$l,$APPEND(_)>* <x,$l,$END>))*;
}
spec $Clock {
  objects $k;
  sort Env = all except { $g, $l, $k };
  alphabet call Env -> $k : $VOCAB;
  traces all;
}
""",
    # trace edit: sessions interleave per client instead of one at a time
    trace=(
        "  traces prs (bind x in Env . (<x,$g,$OPEN> <x,$g,$SAMPLE(_)>* <x,$g,$CLOSE>))*;\n",
        "  traces forall x in Env . prs (<x,$g,$OPEN> <x,$g,$SAMPLE(_)>* <x,$g,$CLOSE>)*;\n",
    ),
    vocab=("$TICK", "$BEAT"),
    queries=[
        ("refine", ["Gauge2", "Gauge"], (OK,) * 4),
        ("refine", ["Log2", "Log"], (OK,) * 4),
        ("refine", ["Gauge", "Gauge2"], (FAIL,) * 4),
        ("equal", ["Gauge", "GaugeR"], (OK,) * 4),
        ("equal", ["Gauge", "Gauge2"], (FAIL,) * 4),
        ("compose", ["Gauge", "Log"], (OK,) * 4),
        ("compose", ["Log", "Clock"], (OK,) * 4),
        ("refine", ["Gauge2||Log", "Gauge||Log"], (OK,) * 4),
        ("refine", ["Gauge2||Clock", "Gauge||Clock"], (OK,) * 4),
        ("refine", ["Clock||Gauge2", "Clock||Gauge"], (OK,) * 4),
        ("refine", ["Log2||Clock", "Log||Clock"], (OK,) * 4),
        ("refine", ["Gauge2||Log||Clock", "Gauge||Log||Clock"], (OK,) * 4),
        ("equal", ["Gauge||Log", "Log||Gauge"], (OK,) * 4),
        ("equal", ["GaugeR||Log", "Gauge||Log"], (OK,) * 4),
        ("refine", ["Gauge2||Log2", "Gauge||Log"], (OK,) * 4),
        ("refine", ["Gauge||Log", "Gauge2||Log"], (FAIL,) * 4),
        ("compose", ["Gauge||Log", "Clock"], (OK,) * 4),
        ("deadlock", ["Gauge2||Log", "Clock"], (OK,) * 4),
    ],
)

ATM = dict(
    objects=["atm", "bank"],
    methods=["INSERT", "EJECT", "PIN", "WDRAW", "LOGTX", "LOGOP"],
    specs=["Session", "Cash", "Audit", "AtmFull"],
    text="""// Independently written viewpoints of a machine, merged by refinement.
spec $Session {
  objects $atm;
  sort Cust = all except { $atm, $bank };
  alphabet call Cust -> $atm : $INSERT, $EJECT;
  traces forall x in Cust . prs (<x,$atm,$INSERT> <x,$atm,$EJECT>)*;
}
spec $Cash {
  objects $atm;
  sort Cust = all except { $atm, $bank };
  alphabet call Cust -> $atm : $PIN(data), $WDRAW(data);
  traces all;
}
spec $Audit {
  objects $bank;
  sort Src = all except { $bank };
  alphabet call Src -> $bank : $VOCAB(data);
  traces all;
}
spec $AtmFull {
  objects $atm;
  sort Cust = all except { $atm, $bank };
  alphabet call Cust -> $atm : $INSERT, $EJECT, $PIN(data), $WDRAW(data);
  traces forall x in Cust .
    prs (<x,$atm,$INSERT> <x,$atm,$PIN(_)> <x,$atm,$WDRAW(_)>* <x,$atm,$EJECT>)*;
$TRACE}
""",
    # trace edit: allow two concurrent sessions instead of one
    trace=("  traces count #$INSERT - #$EJECT <= 1;\n", "  traces count #$INSERT - #$EJECT <= 2;\n"),
    vocab=("$LOGTX", "$LOGOP"),
    queries=[
        ("refine", ["AtmFull", "Session"], (OK,) * 4),
        ("refine", ["AtmFull", "Cash"], (OK,) * 4),
        ("refine", ["Session", "AtmFull"], (FAIL,) * 4),
        ("refine", ["Cash", "Session"], (FAIL,) * 4),
        ("refine", ["Session", "Cash"], (FAIL,) * 4),
        ("compose", ["AtmFull", "Audit"], (OK,) * 4),
        ("compose", ["Session", "Cash"], (OK,) * 4),
        ("compose", ["Cash", "Audit"], (OK,) * 4),
        ("deadlock", ["AtmFull", "Audit"], (OK,) * 4),
        ("equal", ["Session", "Session"], (OK,) * 4),
        ("equal", ["Cash", "Cash"], (OK,) * 4),
    ],
)

BOITEN = dict(
    objects=["b", "u"],
    methods=["PUT", "ACK", "GET", "DONE", "SYNC", "FLUSH"],
    specs=["Put", "PutAck", "PutAckSync", "PutEarly", "PutAcc", "User", "User2"],
    text="""// Granularity refinement: concrete levels add actions (ACK, SYNC).
spec $Put {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $GET;
  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$GET>))*;
}
spec $PutAck {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
$TRACE}
spec $PutAckSync {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET, $VOCAB;
  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$ACK> <x,$b,$GET> <x,$b,$VOCAB>))*;
}
spec $PutEarly {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$GET> <x,$b,$PUT(_)>))*;
}
spec $PutAcc {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$PUT(_)>* <x,$b,$GET>))*;
  traces prs <$u,_,_>*;
}
spec $User {
  objects $u;
  sort Srv = all except { $u };
  sort Ext = all except { $u, $b };
  alphabet call $u -> Srv : $PUT(data), $DONE;
  traces prs (<$u,$b,$PUT(_)> bind y in Ext . (<$u,y,$DONE>))*;
}
spec $User2 {
  objects $u;
  sort Srv = all except { $u };
  sort Ext = all except { $u, $b };
  alphabet call $u -> Srv : $PUT(data), $DONE, $ACK;
  traces prs (<$u,$b,$PUT(_)> bind y in Ext . (<$u,y,$DONE>) <$u,$b,$ACK>)*;
}
""",
    # trace edit: the acknowledged buffer answers before it is filled
    trace=(
        "  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$ACK> <x,$b,$GET>))*;\n",
        "  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$GET> <x,$b,$PUT(_)>))*;\n",
    ),
    vocab=("$SYNC", "$FLUSH"),
    queries=[
        ("refine", ["PutAck", "Put"], (OK, OK, FAIL, FAIL)),
        ("refine", ["PutAckSync", "PutAck"], (OK, OK, FAIL, FAIL)),
        ("refine", ["PutAckSync", "Put"], (OK,) * 4),
        ("refine", ["PutEarly", "Put"], (FAIL,) * 4),
        ("refine", ["Put", "PutAck"], (FAIL,) * 4),
        ("refine", ["PutAcc", "PutAck"], (FAIL,) * 4),
        ("refine", ["User2", "User"], (OK,) * 4),
        ("refine", ["User", "User2"], (FAIL,) * 4),
        ("equal", ["PutAck", "PutEarly"], (FAIL, FAIL, OK, OK)),
        ("equal", ["Put", "Put"], (OK,) * 4),
        ("compose", ["User", "PutAcc"], (OK,) * 4),
        ("compose", ["User2", "PutAck"], (OK,) * 4),
        ("deadlock", ["User", "PutAcc"], (OK,) * 4),
        ("deadlock", ["User2", "PutAcc"], (FAIL,) * 4),
    ],
)

SZ = dict(
    objects=["n", "s"],
    methods=["SEND", "DELIV", "LOSS", "RETRY", "RESEND"],
    specs=["Ideal", "Partial", "Real", "Retry", "Sender"],
    text="""// Idealized, partial and realistic specifications of a channel.
spec $Ideal {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV;
  traces forall x in Env . prs (<x,$n,$SEND(_)> <x,$n,$DELIV>)*;
}
spec $Partial {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV;
$TRACE}
spec $Real {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV, $LOSS;
  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$DELIV> | <x,$n,$LOSS>))*;
}
spec $Retry {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV, $LOSS, $VOCAB;
  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$LOSS> <x,$n,$VOCAB>)* <x,$n,$DELIV>)*;
}
spec $Sender {
  objects $s;
  sort Net = all except { $s };
  alphabet call $s -> Net : $SEND(data);
  traces prs (<$s,$n,$SEND(_)>)*;
}
""",
    # trace edit: the partial spec is tightened into the idealized one
    trace=(
        "  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$DELIV> | eps))*;\n",
        "  traces forall x in Env . prs (<x,$n,$SEND(_)> <x,$n,$DELIV>)*;\n",
    ),
    vocab=("$RETRY", "$RESEND"),
    queries=[
        ("refine", ["Real", "Partial"], (OK, OK, FAIL, FAIL)),
        ("refine", ["Ideal", "Partial"], (OK,) * 4),
        ("refine", ["Partial", "Ideal"], (FAIL, FAIL, OK, OK)),
        ("refine", ["Real", "Ideal"], (FAIL,) * 4),
        ("refine", ["Retry", "Ideal"], (OK,) * 4),
        ("refine", ["Retry", "Partial"], (OK,) * 4),
        ("refine", ["Retry", "Real"], (FAIL,) * 4),
        ("refine", ["Ideal", "Real"], (FAIL,) * 4),
        ("equal", ["Partial", "Ideal"], (FAIL, FAIL, OK, OK)),
        ("equal", ["Ideal", "Ideal"], (OK,) * 4),
        ("compose", ["Sender", "Ideal"], (OK,) * 4),
        ("compose", ["Sender", "Real"], (OK,) * 4),
        ("deadlock", ["Sender", "Ideal"], (OK,) * 4),
    ],
)

TEMPLATES = {"paper": PAPER, "fleet": FLEET, "atm": ATM, "boiten": BOITEN, "sz": SZ}

# Queries a one-shot CLI invocation cannot pose (composition tokens are
# a manifest / wire feature) are only used in batch, serve and watch.
def composite(names):
    return any("||" in n for n in names)


# ---------------------------------------------------------------------------
# Renaming

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = _LOWER.upper()


def _tag(rng, alphabet, n):
    return "".join(rng.choice(alphabet) for _ in range(n))


def _renaming(rng, tpl, idx):
    """Fresh, family-unique names for every placeholder of a template."""
    names, used = {}, set()
    for kind, pool, base in (
        ("objects", _LOWER, tpl["objects"]),
        ("methods", _UPPER, tpl["methods"]),
        ("specs", _UPPER, tpl["specs"]),
    ):
        for b in base:
            while True:
                if kind == "objects":
                    new = b + _tag(rng, _LOWER, 2) + str(idx)
                elif kind == "methods":
                    new = b + _tag(rng, _UPPER, 2)
                else:
                    new = b + _tag(rng, _LOWER, 2) + str(idx)
                if new not in used:
                    used.add(new)
                    names[b] = new
                    break
    return names


def render(tpl, names, trace_bit, vocab_bit):
    body = tpl["text"].replace("$TRACE", tpl["trace"][trace_bit])
    body = body.replace("$VOCAB", tpl["vocab"][vocab_bit])
    return Template(body).substitute(names)


def rename_token(names, token):
    return "||".join(names[p] for p in token.split("||"))


# ---------------------------------------------------------------------------
# Corpus

def generate(out, seed, families, variants=False):
    """Write the corpus under ``out``; return its description (a dict).

    With ``variants``, ``variants/FILE.T.V`` holds the family text with
    trace bit ``T`` and vocab bit ``V``.

    Family ``i`` has template ``i mod 5``, so every prefix of the family
    list has the same template mix whatever the seed: the cost mix of a
    run does not drift with the seed, which picks names and orders only.
    """
    rng = random.Random(seed)
    kinds = list(TEMPLATES)
    order = [kinds[i % len(kinds)] for i in range(families)]
    for sub in ("specs", "manifests") + (("variants",) if variants else ()):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    fams, queries = [], []
    for idx, kind in enumerate(order):
        tpl = TEMPLATES[kind]
        names = _renaming(rng, tpl, idx)
        fname = "f%04d.oun" % idx
        path = os.path.join(out, "specs", fname)
        text = render(tpl, names, 0, 0)
        with open(path, "w") as f:
            f.write(text)
        if variants:
            for t in (0, 1):
                for v in (0, 1):
                    with open(os.path.join(out, "variants", "%s.%d.%d" % (fname, t, v)), "w") as f:
                        f.write(render(tpl, names, t, v))
        fq = []
        for qkind, qnames, expect in tpl["queries"]:
            q = dict(
                id=len(queries),
                family=idx,
                template=kind,
                file="specs/" + fname,
                kind=qkind,
                names=[rename_token(names, n) for n in qnames],
                expect=list(expect),
                composite=composite(qnames),
            )
            queries.append(q)
            fq.append(q)
        manifest = os.path.join("manifests", "f%04d.manifest" % idx)
        with open(os.path.join(out, manifest), "w") as f:
            f.write("use ../specs/%s\n" % fname)
            for q in fq:
                f.write("%s %s\n" % (q["kind"], " ".join(q["names"])))
        fams.append(dict(index=idx, template=kind, file="specs/" + fname,
                         manifest=manifest, text=text, queries=[q["id"] for q in fq]))
    # Parse gate: one cheap symbolic query per file elaborates every file.
    with open(os.path.join(out, "gate.manifest"), "w") as f:
        for fam in fams:
            first = queries[fam["queries"][0]]
            f.write("use %s\ncompose %s %s\n" % (fam["file"], first["names"][0], first["names"][0]))
    return dict(seed=seed, families=fams, queries=queries)


def stratified(rng, families):
    """A seeded order of ``families`` that keeps the template round-robin:
    position k holds a family of template k mod 5, the families of each
    template taken in a seeded order."""
    by = {}
    for f in families:
        by.setdefault(f["template"], []).append(f)
    for fs in by.values():
        rng.shuffle(fs)
    kinds = [k for k in TEMPLATES if k in by]
    n = max(len(fs) for fs in by.values())
    return [by[k][i] for i in range(n) for k in kinds if i < len(by[k])]

