open Pcc_sim
open Pcc_scenario

(* Integration tests of the paper's headline behaviours, scaled down.

   Every topology these tests build runs under the runtime invariant
   checker by default — a violation raises inside the engine and fails
   the test. Set PCC_TEST_INVARIANTS=0 to opt out (e.g. when bisecting
   a violation interactively). *)

let invariants_enabled =
  match Sys.getenv_opt "PCC_TEST_INVARIANTS" with
  | Some ("0" | "off" | "false") -> false
  | _ -> true

let watch topo =
  if invariants_enabled then ignore (Invariant.attach_topology topo)

let goodput_mbps f duration =
  float_of_int (Topology.goodput_bytes f * 8) /. duration /. 1e6

let test_pcc_fills_clean_link () =
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.03
      ~buffer:(Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.03)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.pcc ()) ]
      ()
  in
  watch topo;
  Engine.run ~until:20. engine;
  let f = (Topology.flows topo).(0) in
  Alcotest.(check bool) "above 80 Mbps average incl. startup" true
    (goodput_mbps f 20. > 80.)

let test_pcc_beats_cubic_on_lossy_link () =
  let run spec =
    let engine = Engine.create () in
    let rng = Rng.create 42 in
    let topo =
      Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.03
        ~buffer:(Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.03)
        ~loss:0.01
        ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
        ()
    in
    watch topo;
    Engine.run ~until:30. engine;
    goodput_mbps (Topology.flows topo).(0) 30.
  in
  let pcc = run (Transport.pcc ()) in
  let cubic = run (Transport.tcp "cubic") in
  Alcotest.(check bool) "PCC >= 5x CUBIC at 1% loss" true (pcc > 5. *. cubic)

let test_pcc_shallow_buffer () =
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  (* 6 MSS of buffer — the paper's 90%-of-capacity point. *)
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.03
      ~buffer:(6 * Units.mss)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.pcc ()) ]
      ()
  in
  watch topo;
  Engine.run ~until:20. engine;
  Alcotest.(check bool) "90% capacity on 6-packet buffer" true
    (goodput_mbps (Topology.flows topo).(0) 20. > 80.)

let test_two_pcc_flows_converge_fair () =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.03
      ~buffer:(Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.03)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] (Transport.pcc ());
          Topology.flow ~route:[ 0; 1 ] (Transport.pcc ());
        ]
      ()
  in
  watch topo;
  (* Both start together: convergence is fast; measure the last 30 s. *)
  Engine.run ~until:30. engine;
  let f = Topology.flows topo in
  let b0 = Array.map Topology.goodput_bytes f in
  Engine.run ~until:60. engine;
  let share i = float_of_int (Topology.goodput_bytes f.(i) - b0.(i)) in
  let jain = Pcc_metrics.Stats.jain_index [| share 0; share 1 |] in
  Alcotest.(check bool) "fair split" true (jain > 0.95);
  Alcotest.(check bool) "link utilized" true
    ((share 0 +. share 1) *. 8. /. 30. > Units.mbps 80.)

let test_pcc_rtt_fairness_beats_newreno () =
  let ratio spec =
    let engine = Engine.create () in
    let rng = Rng.create 9 in
    let topo =
      Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.01
        ~buffer:(Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.01)
        ~flows:
          [
            Topology.flow ~route:[ 0; 1 ] ~extra_rtt:0.07 spec (* 80 ms flow *);
            Topology.flow ~route:[ 0; 1 ] ~start_at:2. spec (* 10 ms flow *);
          ]
        ()
    in
    watch topo;
    Engine.run ~until:20. engine;
    let f = Topology.flows topo in
    let b0 = Array.map Topology.goodput_bytes f in
    Engine.run ~until:60. engine;
    let d i = float_of_int (Topology.goodput_bytes f.(i) - b0.(i)) in
    d 0 /. Float.max (d 1) 1.
  in
  let pcc = ratio (Transport.pcc ()) in
  let reno = ratio (Transport.tcp "newreno") in
  Alcotest.(check bool) "PCC closer to fair than Reno" true (pcc > reno);
  Alcotest.(check bool) "PCC above half share" true (pcc > 0.5)

let test_flow_scheduling_and_fct () =
  let engine = Engine.create () in
  let rng = Rng.create 3 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.02
      ~buffer:(Units.kib 64)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~start_at:1. ~size:(100 * Units.mss)
            (Transport.tcp "newreno");
        ]
      ()
  in
  watch topo;
  Engine.run ~until:0.5 engine;
  let f = (Topology.flows topo).(0) in
  Alcotest.(check int) "nothing before start" 0
    (f.Topology.sender.Pcc_net.Sender.sent_pkts ());
  Engine.run ~until:10. engine;
  (match f.Topology.fct with
  | Some fct ->
    (* 100 MSS at 10 Mbps is ~0.12 s of wire time plus slow start. *)
    Alcotest.(check bool) "fct sane" true (fct > 0.12 && fct < 5.)
  | None -> Alcotest.fail "fct not recorded");
  Alcotest.(check bool) "complete" true
    (f.Topology.sender.Pcc_net.Sender.is_complete ())

let test_set_base_rtt_applies () =
  let engine = Engine.create () in
  let rng = Rng.create 3 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.02
      ~buffer:(Units.kib 64)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.tcp "newreno") ]
      ()
  in
  watch topo;
  Topology.set_base_rtt topo 0.2;
  Engine.run ~until:5. engine;
  let f = (Topology.flows topo).(0) in
  Alcotest.(check bool) "srtt reflects new base rtt" true
    (f.Topology.sender.Pcc_net.Sender.srtt () > 0.15)

let test_internet_model_params_in_range () =
  let rng = Rng.create 77 in
  for _ = 1 to 200 do
    let p = Internet_model.random rng in
    Alcotest.(check bool) "bw range" true
      (p.Internet_model.bandwidth >= Units.mbps 10.
      && p.Internet_model.bandwidth <= Units.mbps 500.);
    Alcotest.(check bool) "rtt range" true
      (p.Internet_model.rtt >= 0.01 && p.Internet_model.rtt <= 0.3);
    Alcotest.(check bool) "loss range" true
      (p.Internet_model.loss >= 0. && p.Internet_model.loss <= 0.01);
    Alcotest.(check bool) "buffer positive" true (p.Internet_model.buffer > 0)
  done

let test_internet_model_measure_runs () =
  let rng = Rng.create 78 in
  let p = Internet_model.random rng in
  let tput =
    Internet_model.measure ~duration:5. ~seed:1 p (Transport.tcp "newreno")
  in
  Alcotest.(check bool) "positive throughput" true (tput > 0.);
  Alcotest.(check bool) "below capacity" true
    (tput <= p.Internet_model.bandwidth);
  (* Same seed, same params: deterministic. *)
  let tput2 =
    Internet_model.measure ~duration:5. ~seed:1 p (Transport.tcp "newreno")
  in
  Alcotest.(check (float 1.)) "deterministic" tput tput2

let test_transport_names () =
  Alcotest.(check string) "pcc" "pcc/safe" (Transport.name (Transport.pcc ()));
  Alcotest.(check string) "tcp" "cubic" (Transport.name (Transport.tcp "cubic"));
  Alcotest.(check string) "paced" "newreno+pacing"
    (Transport.name (Transport.tcp_paced "newreno"));
  Alcotest.(check string) "sabul" "sabul" (Transport.name Transport.sabul);
  Alcotest.(check string) "pcp" "pcp" (Transport.name Transport.pcp)

let suites =
  [
    ( "scenario.integration",
      [
        Alcotest.test_case "pcc fills clean link" `Slow test_pcc_fills_clean_link;
        Alcotest.test_case "pcc beats cubic on loss" `Slow
          test_pcc_beats_cubic_on_lossy_link;
        Alcotest.test_case "pcc shallow buffer" `Slow test_pcc_shallow_buffer;
        Alcotest.test_case "two pcc flows fair" `Slow
          test_two_pcc_flows_converge_fair;
        Alcotest.test_case "rtt fairness" `Slow
          test_pcc_rtt_fairness_beats_newreno;
        Alcotest.test_case "flow scheduling and fct" `Quick
          test_flow_scheduling_and_fct;
        Alcotest.test_case "set base rtt" `Quick test_set_base_rtt_applies;
      ] );
    ( "scenario.internet_model",
      [
        Alcotest.test_case "params in range" `Quick
          test_internet_model_params_in_range;
        Alcotest.test_case "measure runs" `Slow test_internet_model_measure_runs;
      ] );
    ( "scenario.transport",
      [ Alcotest.test_case "names" `Quick test_transport_names ] );
  ]
