(* Entry point aggregating every suite; `dune runtest` runs them all. *)

let () =
  Alcotest.run "pcc_repro"
    (Test_sim.suites @ Test_sched.suites @ Test_net.suites @ Test_queue.suites @ Test_tcp.suites
   @ Test_rate_transports.suites @ Test_pcc.suites @ Test_utility.suites
   @ Test_controllers.suites @ Test_game.suites @ Test_metrics.suites @ Test_scenario.suites
   @ Test_persist.suites @ Test_fuzz.suites
   @ Test_multihop.suites @ Test_topology.suites @ Test_robustness.suites
   @ Test_fault.suites
   @ Test_experiments.suites @ Test_runner.suites @ Test_trace.suites)
