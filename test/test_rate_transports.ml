open Pcc_sim
open Pcc_scenario

(* SABUL and PCP behavioural tests through the scenario harness. *)

let solo ?(bandwidth = Units.mbps 50.) ?(rtt = 0.04) ?(loss = 0.)
    ?(jitter = 0.) ?(duration = 30.) ?size spec =
  let engine = Engine.create () in
  let rng = Rng.create 21 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~loss ~jitter
      ~flows:[ Topology.flow ~route:[ 0; 1 ] ?size spec ]
      ()
  in
  Engine.run ~until:duration engine;
  (engine, topo, (Topology.flows topo).(0))

let test_sabul_reaches_capacity () =
  let _, _, f = solo Transport.sabul in
  let tput = float_of_int (Topology.goodput_bytes f * 8) /. 30. in
  Alcotest.(check bool) "above 70% of capacity" true
    (tput > 0.7 *. Units.mbps 50.)

let test_sabul_loss_tolerant_but_below_pcc () =
  let _, _, sab = solo ~loss:0.01 ~duration:60. Transport.sabul in
  let _, _, reno = solo ~loss:0.01 ~duration:60. (Transport.tcp "newreno") in
  let t_sab = Topology.goodput_bytes sab
  and t_reno = Topology.goodput_bytes reno in
  Alcotest.(check bool) "sabul beats reno under random loss" true
    (t_sab > 2 * t_reno)

let test_sabul_finite_transfer () =
  let size = 200 * Units.mss in
  let _, _, f = solo ~loss:0.02 ~duration:60. ~size Transport.sabul in
  Alcotest.(check bool) "completes" true
    (f.Topology.sender.Pcc_net.Sender.is_complete ());
  Alcotest.(check bool) "fct recorded" true (f.Topology.fct <> None)

let test_pcp_reaches_capacity_on_clean_link () =
  let _, _, f = solo ~duration:40. Transport.pcp in
  let tput = float_of_int (Topology.goodput_bytes f * 8) /. 40. in
  Alcotest.(check bool) "above 60% of capacity" true
    (tput > 0.6 *. Units.mbps 50.)

let test_pcp_underestimates_with_jitter () =
  (* §5: latency jitter breaks packet-train dispersion estimates. *)
  let _, _, clean = solo ~duration:40. Transport.pcp in
  let _, _, jittery = solo ~jitter:0.004 ~duration:40. Transport.pcp in
  let t_clean = Topology.goodput_bytes clean in
  let t_jit = Topology.goodput_bytes jittery in
  Alcotest.(check bool) "jitter hurts PCP" true
    (float_of_int t_jit < 0.8 *. float_of_int t_clean)

let test_pcp_finite_transfer () =
  let size = 100 * Units.mss in
  let _, _, f = solo ~loss:0.01 ~duration:60. ~size Transport.pcp in
  Alcotest.(check bool) "completes" true
    (f.Topology.sender.Pcc_net.Sender.is_complete ())

let test_cross_traffic_occupies_share () =
  let engine = Engine.create () in
  let rng = Rng.create 4 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.02
      ~buffer:(Units.kib 64)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.tcp "newreno") ]
      ()
  in
  let ct =
    Cross_traffic.onoff engine ~rng:(Rng.create 5)
      ~sink:(Topology.send_link topo 0)
      ~rate:(Units.mbps 5.) ~on_mean:0.5 ~off_mean:0.5 ()
  in
  Engine.run ~until:20. engine;
  Cross_traffic.stop ct;
  Alcotest.(check bool) "cross traffic sent packets" true
    (Cross_traffic.sent_pkts ct > 100);
  let tcp_share =
    float_of_int (Topology.goodput_bytes (Topology.flows topo).(0) * 8) /. 20.
  in
  (* TCP should lose a visible share of the 10 Mbps to the bursts. *)
  Alcotest.(check bool) "tcp squeezed" true (tcp_share < Units.mbps 9.5);
  Alcotest.(check bool) "tcp survives" true (tcp_share > Units.mbps 2.)

let test_dynamics_driver_changes_link () =
  let engine = Engine.create () in
  let rng = Rng.create 6 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 50.) ~rtt:0.05
      ~buffer:(Units.kib 128)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (Transport.pcc ()) ]
      ()
  in
  let dyn =
    Dynamics.start engine ~rng:(Rng.create 7) ~topo ~period:1. ()
  in
  Engine.run ~until:10.5 engine;
  Dynamics.stop dyn;
  let series = Dynamics.optimal_series dyn in
  Alcotest.(check bool) "about 11 redraws" true (Array.length series >= 10);
  let bws = Array.map snd series in
  Alcotest.(check bool) "within range" true
    (Array.for_all (fun b -> b >= Units.mbps 10. && b <= Units.mbps 100.) bws);
  let mean = Dynamics.mean_optimal dyn ~until:10.5 in
  Alcotest.(check bool) "mean within range" true
    (mean > Units.mbps 10. && mean < Units.mbps 100.)

let suites =
  [
    ( "transports.sabul",
      [
        Alcotest.test_case "reaches capacity" `Slow test_sabul_reaches_capacity;
        Alcotest.test_case "loss tolerant" `Slow
          test_sabul_loss_tolerant_but_below_pcc;
        Alcotest.test_case "finite transfer" `Slow test_sabul_finite_transfer;
      ] );
    ( "transports.pcp",
      [
        Alcotest.test_case "reaches capacity" `Slow
          test_pcp_reaches_capacity_on_clean_link;
        Alcotest.test_case "jitter hurts" `Slow test_pcp_underestimates_with_jitter;
        Alcotest.test_case "finite transfer" `Slow test_pcp_finite_transfer;
      ] );
    ( "scenario.background",
      [
        Alcotest.test_case "cross traffic" `Slow test_cross_traffic_occupies_share;
        Alcotest.test_case "dynamics driver" `Slow
          test_dynamics_driver_changes_link;
      ] );
  ]
