let () =
  Alcotest.run "violet"
    [
      ("vsmt", Test_vsmt.tests);
      ("vir", Test_vir.tests);
      ("vruntime", Test_vruntime.tests);
      ("vsymexec", Test_vsymexec.tests);
      ("vanalysis", Test_vanalysis.tests);
      ("vtrace", Test_vtrace.tests);
      ("tracefile", Test_tracefile.tests);
      ("vmodel", Test_vmodel.tests);
      ("vchecker", Test_vchecker.tests);
      ("matcheck", Test_matcheck.tests);
      ("pipeline", Test_pipeline.tests);
      ("targets", Test_targets.tests);
      ("extensions", Test_extensions.tests);
      ("properties", Test_properties.tests);
      ("report", Test_report.tests);
      ("patterns", Test_patterns.tests);
      ("subsystems", Test_subsystems.tests);
      ("vsched", Test_vsched.tests);
      (* Every suite that forks comes before the one that spawns domains in
         this process: OCaml 5 forbids [Unix.fork] once any domain has been
         spawned.  These four fork (a kill -9 victim, a supervisor, a daemon,
         the oracle's daemons and fleets)... *)
      ("vresilience", Test_vresilience.tests);
      ("vfleet", Test_vfleet.tests);
      ("vserve", Test_vserve.tests);
      ("vfuzz", Test_vfuzz.tests);
      (* ...and vpar's pool tests spawn domains; vmodel-ref, vslice and
         vinc set jobs 4, which the diff ignores *)
      ("vpar", Test_vpar.tests);
      ("vmodel-ref", Test_vmodel.after_fork_tests);
      ("vslice", Test_vslice.tests);
      ("vinc", Test_vinc.tests);
      ("endtoend", Test_endtoend.tests);
      ("smoke", Test_smoke.tests);
    ]
