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
      (* vresilience before vpar: its kill -9 test needs [Unix.fork], which
         OCaml 5 forbids once any domain has been spawned *)
      ("vresilience", Test_vresilience.tests);
      (* vfleet forks a supervisor, so it too must precede every
         domain-spawning suite *)
      ("vfleet", Test_vfleet.tests);
      ("vpar", Test_vpar.tests);
      (* compares the diff at jobs 4, which spawns domains *)
      ("vmodel-ref", Test_vmodel.after_fork_tests);
      ("vslice", Test_vslice.tests);
      (* vserve spawns the daemon on a domain, so it also stays after the
         fork-based vresilience tests *)
      ("vserve", Test_vserve.tests);
      (* vfuzz's oracle tests also spawn daemon domains *)
      ("vfuzz", Test_vfuzz.tests);
      ("vinc", Test_vinc.tests);
      ("endtoend", Test_endtoend.tests);
      ("smoke", Test_smoke.tests);
    ]
