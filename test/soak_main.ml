(* The soaks that force no collection, in a process of their own.  They
   read the major heap as the GC leaves it between lookups, and the GC
   paces its cycles by the heap's size: run after the rest of the suite
   (whose span rings and contexts stay live), a cycle takes thousands
   of rounds and the readings measure garbage awaiting collection, not
   what the code keeps alive. *)

let () =
  Alcotest.run "posl-soak"
    [ ("watch", Test_watch.soaks); ("engine", Test_engine.soaks) ]
