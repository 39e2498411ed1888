let () =
  Alcotest.run "ssp"
    [
      ("isa", Test_isa.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("sim", Test_sim.suite);
      ("minic", Test_minic.suite);
      ("profiling", Test_profiling.suite);
      ("ssp", Test_ssp.suite);
      ("workloads", Test_workloads.suite);
      ("sampling", Test_sampling.suite);
      ("telemetry", Test_telemetry.suite);
      ("attrib", Test_attrib.suite);
      ("parallel", Test_parallel.suite);
      ("fault", Test_fault.suite);
      ("store", Test_store.suite);
      ("feedback", Test_feedback.suite);
      ("server", Test_server.suite);
      ("cluster", Test_cluster.suite);
      ("integration", Test_integration.suite);
      ("golden", Test_golden.suite);
    ]
