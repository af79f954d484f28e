let () =
  Alcotest.run "hetmig"
    [
      ("sim", Test_sim.suite);
      ("islands", Test_islands.suite);
      ("obs", Test_obs.suite);
      ("isa", Test_isa.suite);
      ("memsys", Test_memsys.suite);
      ("heap", Test_heap.suite);
      ("ir", Test_ir.suite);
      ("binary", Test_binary.suite);
      ("compiler", Test_compiler.suite);
      ("runtime", Test_runtime.suite);
      ("dsm", Test_dsm.suite);
      ("kernel", Test_kernel.suite);
      ("services", Test_services.suite);
      ("render", Test_render.suite);
      ("faults", Test_faults.suite);
      ("determinism", Test_determinism.suite);
      ("machine", Test_machine.suite);
      ("workload", Test_workload.suite);
      ("baseline", Test_baseline.suite);
      ("sched", Test_sched.suite);
      ("serving", Test_serving.suite);
      ("parallel", Test_parallel.suite);
      ("core", Test_core.suite);
      ("analysis", Test_analysis.suite);
      ("audit", Test_audit.suite);
      ("cluster", Test_cluster.suite);
    ]
