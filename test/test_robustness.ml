open Pcc_sim
open Pcc_scenario

(* Failure injection and adversarial conditions, driven through the
   declarative Fault schedule API (faults are data; Fault.inject compiles
   them onto engine timers). The invariant checker rides along on the
   fault-heavy scenarios, so every run also audits packet conservation,
   queue occupancy and throughput bounds. *)

let build ?(bandwidth = Units.mbps 50.) ?(rtt = 0.03) ?(loss = 0.)
    ?(rev_loss = 0.) ?seed:(sd = 31) spec =
  let engine = Engine.create () in
  let rng = Rng.create sd in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~loss ~rev_loss
      ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
      ()
  in
  (engine, topo, (Topology.flows topo).(0))

let window_mbps engine f t0 t1 =
  Engine.run ~until:t0 engine;
  let b0 = Topology.goodput_bytes f in
  Engine.run ~until:t1 engine;
  float_of_int ((Topology.goodput_bytes f - b0) * 8) /. (t1 -. t0) /. 1e6

let test_pcc_survives_blackout () =
  let engine, topo, f = build (Transport.pcc ()) in
  ignore (Invariant.attach_topology topo);
  (* Total blackout between t=10 and t=13. *)
  Fault.inject
    (Fault.target_of_topology topo)
    [ Fault.at 10. (Fault.Blackout { duration = 3. }) ];
  let before = window_mbps engine f 5. 10. in
  let during = window_mbps engine f 10.5 12.5 in
  let after = window_mbps engine f 25. 40. in
  Alcotest.(check bool) "healthy before" true (before > 35.);
  Alcotest.(check bool) "starved during" true (during < 5.);
  Alcotest.(check bool) "recovers after" true (after > 30.)

let test_blackout_resume_with_rto_backstop () =
  (* A 5 s total blackout outlasts any single RTO: both PCC and CUBIC
     must resume transmission after the link returns. For CUBIC the
     resume is driven by the retransmission-timeout backstop, visible
     as cause-2 Cwnd trace events (the [timeouts] counter's trace
     mirror); PCC's rate machinery needs no RTO at all. *)
  let run spec =
    let c = Pcc_trace.Collector.create ~capacity:500_000 () in
    Pcc_trace.Collector.install c;
    Fun.protect ~finally:Pcc_trace.Collector.uninstall @@ fun () ->
    let engine, topo, f = build spec in
    Fault.inject
      (Fault.target_of_topology topo)
      [ Fault.at 10. (Fault.Blackout { duration = 5. }) ];
    let before = window_mbps engine f 5. 10. in
    let during = window_mbps engine f 10.5 14.5 in
    let after = window_mbps engine f 30. 45. in
    let rto_events =
      Array.fold_left
        (fun acc (r : Pcc_trace.Event.record) ->
          if
            r.Pcc_trace.Event.kind = Pcc_trace.Event.Cwnd
            && r.Pcc_trace.Event.i = 2
          then acc + 1
          else acc)
        0
        (Pcc_trace.Collector.events c)
    in
    (before, during, after, rto_events)
  in
  let b_pcc, d_pcc, a_pcc, _ = run (Transport.pcc ()) in
  Alcotest.(check bool) "pcc healthy before" true (b_pcc > 35.);
  Alcotest.(check bool) "pcc starved during" true (d_pcc < 5.);
  Alcotest.(check bool) "pcc resumes" true (a_pcc > 30.);
  let b_cub, d_cub, a_cub, rto_cub = run (Transport.tcp "cubic") in
  Alcotest.(check bool) "cubic healthy before" true (b_cub > 20.);
  Alcotest.(check bool) "cubic starved during" true (d_cub < 5.);
  Alcotest.(check bool) "cubic resumes" true (a_cub > 5.);
  Alcotest.(check bool) "cubic fired the RTO backstop" true (rto_cub >= 1)

let test_pcc_adapts_to_bandwidth_cliff () =
  let engine, topo, f = build (Transport.pcc ()) in
  ignore (Invariant.attach_topology topo);
  (* 50 -> 5 Mbps at t=15, restored at t=30. *)
  Fault.inject (Fault.target_of_topology topo)
    [ Fault.at 15. (Fault.Bandwidth_cliff { duration = 15.; factor = 0.1 }) ];
  let high1 = window_mbps engine f 8. 14. in
  let low = window_mbps engine f 22. 29. in
  let high2 = window_mbps engine f 45. 60. in
  Alcotest.(check bool) "uses 50 Mbps" true (high1 > 35.);
  Alcotest.(check bool) "respects 5 Mbps" true (low < 5.5);
  Alcotest.(check bool) "uses some of the cliff" true (low > 3.);
  Alcotest.(check bool) "recovers the upside" true (high2 > 30.)

let test_pcc_tolerates_ack_loss () =
  (* 20% ack loss: cumulative acks must keep the monitor's loss estimate
     at the true (zero) data loss. *)
  let engine, topo, f = build (Transport.pcc ()) in
  Fault.inject (Fault.target_of_topology topo)
    [ Fault.at 0. (Fault.Reverse_loss_burst { duration = 45.; loss = 0.2 }) ];
  let tput = window_mbps engine f 10. 40. in
  Alcotest.(check bool) "still near capacity" true (tput > 35.)

let test_tcp_tolerates_ack_loss () =
  let engine, topo, f = build (Transport.tcp "newreno") in
  Fault.inject (Fault.target_of_topology topo)
    [ Fault.at 0. (Fault.Reverse_loss_burst { duration = 45.; loss = 0.2 }) ];
  let tput = window_mbps engine f 10. 40. in
  Alcotest.(check bool) "cumulative acks carry reno" true (tput > 25.)

let test_pcc_reverse_blackhole_then_recovery () =
  (* All acks vanish for 2 s: every MI during the hole reads 100% loss;
     PCC must neither crash nor deadlock, and must come back. *)
  let engine, topo, f = build ~seed:13 (Transport.pcc ()) in
  Fault.inject (Fault.target_of_topology topo)
    [ Fault.at 8. (Fault.Reverse_blackhole { duration = 2. }) ];
  Engine.run ~until:30. engine;
  let late = window_mbps engine f 30. 45. in
  Alcotest.(check bool) "recovered" true (late > 30.)

let test_pcc_forward_blackhole_then_recovery () =
  (* The forward-path variant of the same hole (the pre-Fault-API version
     of this test): the monitor again sees nothing come back. *)
  let engine, topo, f = build ~seed:13 (Transport.pcc ()) in
  Fault.inject
    (Fault.target_of_topology topo)
    [ Fault.at 8. (Fault.Blackout { duration = 2. }) ];
  Engine.run ~until:30. engine;
  let late = window_mbps engine f 30. 45. in
  Alcotest.(check bool) "recovered" true (late > 30.)

let test_fault_restoration_is_exact () =
  (* Faults snapshot the knob they perturb and restore it, composing with
     a standing baseline impairment. *)
  let engine, topo, _ = build ~loss:0.01 (Transport.pcc ()) in
  let link = Topology.link_at topo 0 in
  Fault.inject (Fault.target_of_topology topo)
    [
      Fault.at 2. (Fault.Loss_burst { duration = 1.; loss = 0.3 });
      Fault.at 5. (Fault.Bandwidth_cliff { duration = 1.; factor = 0.25 });
      Fault.at 8. (Fault.Delay_spike { duration = 1.; extra = 0.05 });
    ];
  Engine.run ~until:2.5 engine;
  Alcotest.(check (float 1e-9)) "burst active" 0.3 (Pcc_net.Link.loss link);
  Engine.run ~until:4. engine;
  Alcotest.(check (float 1e-9)) "baseline loss restored" 0.01
    (Pcc_net.Link.loss link);
  Engine.run ~until:5.5 engine;
  Alcotest.(check (float 1e-9)) "cliff active" (Units.mbps 12.5)
    (Pcc_net.Link.bandwidth link);
  Engine.run ~until:7. engine;
  Alcotest.(check (float 1e-9)) "bandwidth restored" (Units.mbps 50.)
    (Pcc_net.Link.bandwidth link);
  Engine.run ~until:8.5 engine;
  Alcotest.(check (float 1e-9)) "spike active" 0.065
    (Pcc_net.Link.delay link);
  Engine.run ~until:10. engine;
  Alcotest.(check (float 1e-9)) "delay restored" 0.015
    (Pcc_net.Link.delay link)

let test_chaos_gauntlet_pcc_vs_cubic () =
  (* The paper's Fig. 11 dynamics claim, condensed: through an identical
     seeded gauntlet of faults, PCC recovers to >=90% of its pre-fault
     throughput after every fault. *)
  let gauntlet spec =
    let engine = Engine.create () in
    let rng = Rng.create 11 in
    let fault_rng = Rng.split rng in
    let bandwidth = Units.mbps 50. in
    let topo =
      Topology.dumbbell engine ~rng ~bandwidth ~rtt:0.03
        ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt:0.03)
        ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
        ()
    in
    ignore (Invariant.attach_topology topo);
    let f = (Topology.flows topo).(0) in
    let recorder =
      Pcc_metrics.Recorder.create engine ~interval:0.25 (fun () ->
          float_of_int (Topology.goodput_bytes f))
    in
    let schedule = Fault.chaos ~rng:fault_rng ~duration:60. () in
    Fault.inject (Fault.target_of_topology topo) schedule;
    Engine.run ~until:60. engine;
    let reports =
      Pcc_metrics.Recovery.analyze
        ~series:(Pcc_metrics.Recorder.rates_bps recorder)
        (Fault.windows schedule)
    in
    (Fault.windows schedule, reports, Topology.goodput_bytes f)
  in
  let faults_pcc, reports_pcc, goodput_pcc = gauntlet (Transport.pcc ()) in
  let faults_cubic, reports_cubic, goodput_cubic =
    gauntlet (Transport.tcp "cubic")
  in
  (* Determinism: both transports faced the exact same gauntlet. *)
  Alcotest.(check bool) "identical schedules" true (faults_pcc = faults_cubic);
  Alcotest.(check bool) "gauntlet not empty" true (List.length faults_pcc >= 2);
  Alcotest.(check int) "one report per fault" (List.length faults_pcc)
    (List.length reports_pcc);
  (* PCC comes back from every fault... *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("pcc recovers from " ^ r.Pcc_metrics.Recovery.label)
        true
        (r.Pcc_metrics.Recovery.time_to_recover <> None))
    reports_pcc;
  (* ...and neither transport collapses outright. *)
  Alcotest.(check bool) "pcc made progress" true
    (float_of_int (goodput_pcc * 8) /. 60. > Units.mbps 20.);
  Alcotest.(check bool) "cubic made progress" true
    (float_of_int (goodput_cubic * 8) /. 60. > Units.mbps 5.);
  Alcotest.(check int) "one report per fault (cubic)"
    (List.length faults_cubic)
    (List.length reports_cubic)

let test_determinism_end_to_end () =
  (* The flagship reproducibility property: identical seeds give
     bit-identical results across independent engines. *)
  let run () =
    let engine, _, f =
      build ~loss:0.01 ~seed:77 (Transport.pcc ())
    in
    Engine.run ~until:20. engine;
    (Topology.goodput_bytes f, f.Topology.sender.Pcc_net.Sender.sent_pkts ())
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "bit-identical" a b

let test_seeds_actually_vary () =
  let run sd =
    let engine, _, f = build ~loss:0.01 ~seed:sd (Transport.pcc ()) in
    Engine.run ~until:10. engine;
    Topology.goodput_bytes f
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_many_flows_share_link () =
  (* 16 PCC flows on one link: capacity respected, no starvation. *)
  let engine = Engine.create () in
  let rng = Rng.create 55 in
  let bandwidth = Units.mbps 80. in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt:0.02
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt:0.02)
      ~flows:
        (List.init 16 (fun _ ->
             Topology.flow ~route:[ 0; 1 ] (Transport.pcc ())))
      ()
  in
  ignore (Invariant.attach_topology topo);
  Engine.run ~until:60. engine;
  let fs = Topology.flows topo in
  let b0 = Array.map Topology.goodput_bytes fs in
  let sent0 =
    Array.fold_left
      (fun acc f -> acc + f.Topology.sender.Pcc_net.Sender.sent_pkts ())
      0 fs
  in
  Engine.run ~until:140. engine;
  let shares =
    Array.mapi
      (fun i f -> float_of_int ((Topology.goodput_bytes f - b0.(i)) * 8) /. 80.)
      fs
  in
  let total = Array.fold_left ( +. ) 0. shares in
  Alcotest.(check bool) "sum below capacity" true (total < bandwidth *. 1.02);
  Alcotest.(check bool) "link well used" true (total > bandwidth *. 0.7);
  Alcotest.(check bool) "nobody starved" true
    (Array.for_all (fun s -> s > bandwidth /. 16. /. 6.) shares);
  Alcotest.(check bool) "roughly fair" true
    (Pcc_metrics.Stats.jain_index shares > 0.6);
  (* Waste (drops + duplicates) over the measurement window, excluding the
     startup transient; the safe utility should keep it near its ~5% cap
     plus overshoot episodes. *)
  let sent1 =
    Array.fold_left
      (fun acc f -> acc + f.Topology.sender.Pcc_net.Sender.sent_pkts ())
      0 fs
  in
  let delivered =
    Array.to_list fs
    |> List.mapi (fun i f -> (Topology.goodput_bytes f - b0.(i)) / Units.mss)
    |> List.fold_left ( + ) 0
  in
  let sent = max 1 (sent1 - sent0) in
  Alcotest.(check bool) "loss capped by the safe utility" true
    (float_of_int (sent - delivered) /. float_of_int sent < 0.15)

let test_zero_size_transfer () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 10.) ~rtt:0.02
      ~buffer:(Units.kib 64)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] ~size:1 (Transport.pcc ()) ]
      ()
  in
  Engine.run ~until:5. engine;
  let f = (Topology.flows topo).(0) in
  Alcotest.(check bool) "one-byte flow completes" true
    (f.Topology.sender.Pcc_net.Sender.is_complete ())

let prop_conservation =
  (* End-to-end conservation on random single-flow scenarios: the receiver
     never accepts more distinct bytes than were sent, goodput never
     exceeds capacity x time, and the engine drains without error. The
     invariant checker audits the same run at link granularity. *)
  QCheck.Test.make ~name:"conservation: goodput <= sent and <= capacity*time"
    ~count:12
    QCheck.(
      quad (int_range 1 1000) (int_range 2 200) (int_range 5 100)
        (int_range 0 3))
    (fun (seed, bw_mbps, rtt_ms, transport_ix) ->
      let bandwidth = Units.mbps (float_of_int bw_mbps) in
      let rtt = float_of_int rtt_ms /. 1000. in
      let spec =
        match transport_ix with
        | 0 -> Transport.pcc ()
        | 1 -> Transport.tcp "cubic"
        | 2 -> Transport.sabul
        | _ -> Transport.tcp "newreno"
      in
      let engine = Engine.create () in
      let rng = Rng.create seed in
      let topo =
        Topology.dumbbell engine ~rng ~bandwidth ~rtt
          ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
          ~loss:0.005
          ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
          ()
      in
      ignore (Invariant.attach_topology topo);
      let duration = 5. in
      Engine.run ~until:duration engine;
      let f = (Topology.flows topo).(0) in
      let sent = f.Topology.sender.Pcc_net.Sender.sent_pkts () * Units.mss in
      let good = Topology.goodput_bytes f in
      good <= sent
      && float_of_int (good * 8)
         <= (bandwidth *. (duration +. rtt)) +. float_of_int (8 * Units.mss))

let suites =
  [
    ( "robustness",
      [
        Alcotest.test_case "blackout recovery" `Slow test_pcc_survives_blackout;
        Alcotest.test_case "5s blackout, RTO backstop" `Slow
          test_blackout_resume_with_rto_backstop;
        Alcotest.test_case "bandwidth cliff" `Slow
          test_pcc_adapts_to_bandwidth_cliff;
        Alcotest.test_case "ack loss (pcc)" `Slow test_pcc_tolerates_ack_loss;
        Alcotest.test_case "ack loss (tcp)" `Slow test_tcp_tolerates_ack_loss;
        Alcotest.test_case "reverse blackhole" `Slow
          test_pcc_reverse_blackhole_then_recovery;
        Alcotest.test_case "forward blackhole" `Slow
          test_pcc_forward_blackhole_then_recovery;
        Alcotest.test_case "fault restoration" `Quick
          test_fault_restoration_is_exact;
        Alcotest.test_case "chaos gauntlet (pcc vs cubic)" `Slow
          test_chaos_gauntlet_pcc_vs_cubic;
        Alcotest.test_case "determinism" `Slow test_determinism_end_to_end;
        Alcotest.test_case "seed variation" `Quick test_seeds_actually_vary;
        Alcotest.test_case "16-flow sharing" `Slow test_many_flows_share_link;
        Alcotest.test_case "tiny transfer" `Quick test_zero_size_transfer;
        QCheck_alcotest.to_alcotest prop_conservation;
      ] );
  ]
