open Pcc_experiments

(* Tiny-scale runs of every experiment driver: the point is that each one
   executes, produces well-formed rows and — where cheap enough — shows
   the paper's qualitative ordering. Full-scale numbers come from
   bench/main.exe. *)

let test_loss_rows () =
  let rows = Exp_loss.run ~scale:0.05 ~losses:[ 0.0; 0.01 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "throughputs positive" true
        (r.Exp_loss.pcc > 0. && r.Exp_loss.cubic > 0.))
    rows;
  (* At 1% loss PCC must dominate CUBIC. *)
  let lossy = List.nth rows 1 in
  Alcotest.(check bool) "pcc wins at 1%" true
    (lossy.Exp_loss.pcc > 2. *. lossy.Exp_loss.cubic)

let test_satellite_rows () =
  let rows = Exp_satellite.run ~scale:0.15 ~buffers:[ 30000 ] () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "pcc above hybla" true
      (r.Exp_satellite.pcc > r.Exp_satellite.hybla)
  | _ -> Alcotest.fail "one row expected"

let test_buffer_rows () =
  let rows = Exp_buffer.run ~scale:0.1 ~buffers:[ 9000 ] () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "pcc beats cubic at 6 MSS" true
      (r.Exp_buffer.pcc > r.Exp_buffer.cubic)
  | _ -> Alcotest.fail "one row expected"

let test_interdc_rows () =
  let rows = Exp_interdc.run ~scale:0.05 () in
  Alcotest.(check int) "nine pairs" 9 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "pcc >= cubic" true
        (r.Exp_interdc.pcc >= r.Exp_interdc.cubic))
    rows

let test_internet_summary () =
  let results = Exp_internet.run ~scale:0.1 ~pairs:4 () in
  Alcotest.(check int) "four pairs" 4 (List.length results);
  let summaries = Exp_internet.summarize results in
  Alcotest.(check int) "three baselines" 3 (List.length summaries);
  List.iter
    (fun s ->
      Alcotest.(check bool) "median ratio finite+positive" true
        (s.Exp_internet.median_ratio > 0.))
    summaries

let test_incast_rows () =
  let rows = Exp_incast.run ~scale:0.15 ~senders:[ 15 ] ~blocks:[ 65536 ] () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "pcc goodput positive" true (r.Exp_incast.pcc > 0.);
    Alcotest.(check bool) "pcc beats tcp under incast" true
      (r.Exp_incast.pcc > r.Exp_incast.tcp)
  | _ -> Alcotest.fail "one row expected"

let test_dynamic_rows () =
  let rows, series = Exp_dynamic.run ~scale:0.1 () in
  Alcotest.(check int) "three protocols" 3 (List.length rows);
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " series nonempty") true (s <> []))
    series;
  let pcc = List.find (fun r -> r.Exp_dynamic.protocol = "pcc") rows in
  let cubic = List.find (fun r -> r.Exp_dynamic.protocol = "cubic") rows in
  Alcotest.(check bool) "pcc tracks better" true
    (pcc.Exp_dynamic.fraction > cubic.Exp_dynamic.fraction)

let test_fct_rows () =
  let rows = Exp_fct.run ~scale:0.25 ~loads:[ 0.25 ] () in
  Alcotest.(check int) "two protocols" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "flows completed" true (r.Exp_fct.completed > 3);
      Alcotest.(check bool) "median sane" true
        (r.Exp_fct.median > 0.05 && r.Exp_fct.median < 10.))
    rows

let test_friendliness_rows () =
  let rows =
    Exp_friendliness.run ~scale:0.15 ~selfish_counts:[ 1 ] ()
  in
  Alcotest.(check int) "four configs" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "tcp survives both" true
        (r.Exp_friendliness.tcp_vs_pcc > 0.
        && r.Exp_friendliness.tcp_vs_bundle > 0.))
    rows

let test_high_loss_rows () =
  let rows = Exp_high_loss.run ~scale:0.2 ~losses:[ 0.3 ] () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "resilient utility pushes through 30% loss" true
      (r.Exp_high_loss.pcc_resilient
      > 0.5 *. r.Exp_high_loss.achievable);
    Alcotest.(check bool) "resilient >> cubic" true
      (r.Exp_high_loss.pcc_resilient > 5. *. r.Exp_high_loss.cubic)
  | _ -> Alcotest.fail "one row expected"

let test_game_rows () =
  let rows = Exp_game.run ~ns:[ 2; 5 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "fair" true (r.Exp_game.jain > 0.98);
      Alcotest.(check bool) "theorem-1 band" true
        (r.Exp_game.total_over_c > 0.98
        && r.Exp_game.total_over_c < 20. /. 19. *. 1.02))
    rows

let test_ablation_rows () =
  let rows = Exp_ablation.run ~scale:0.1 () in
  Alcotest.(check int) "eight rows" 8 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive" true (r.Exp_ablation.throughput > 0.))
    rows

let test_tables_render () =
  (* Rendering must not raise for any experiment's table. *)
  let t = Exp_game.table (Exp_game.run ~ns:[ 2 ] ()) in
  Alcotest.(check bool) "has rows" true (t.Exp_common.rows <> []);
  Exp_common.print_table t

(* Per-flow live state of the many-flow fan-in, as the live-word delta
   around a compaction: sequence state must follow each flow's in-flight
   window (about 40 packets here), not the sequences it has sent. With
   per-sequence arrays that only grew, a flow held 15.3 KB after build
   and 15.9 KB after completion; window-sized rings hold 3.3 and 4.7 KB
   (1000 flows, 64-bit). *)
let test_manyflow_per_flow_memory () =
  let open Pcc_sim in
  let n = 1000 in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let kb_per_flow words =
    float_of_int (words * (Sys.word_size / 8)) /. 1024. /. float_of_int n
  in
  let engine = Engine.create () in
  let bandwidth = Exp_manyflow.default_bandwidth in
  let w0 = live () in
  let topo =
    Exp_manyflow.topology engine ~rng:(Rng.create 42) ~n ~bandwidth
      ~rtt:Exp_manyflow.default_rtt
  in
  let built = kb_per_flow (live () - w0) in
  if built > 4. then Alcotest.failf "%.2f KB per flow after build (> 4)" built;
  (* The scenario's own horizon: 200 KB a flow, eight times over. *)
  let ideal = float_of_int (n * 200_000 * 8) /. bandwidth in
  Engine.run ~until:(10. +. (8. *. ideal)) engine;
  Array.iter
    (fun (f : Pcc_scenario.Topology.built_flow) ->
      if f.Pcc_scenario.Topology.fct = None then
        Alcotest.fail "a flow did not complete")
    (Pcc_scenario.Topology.flows topo);
  let finished = kb_per_flow (live () - w0) in
  if finished > 6. then
    Alcotest.failf "%.2f KB per flow after completion (> 6)" finished;
  ignore (Sys.opaque_identity topo)

(* The packet path stores nothing freshly allocated into long-lived
   state (immutable packets, ring FIFOs, float-only records), so the
   minor collector promotes little beyond the packets in flight. A
   300-flow fan-in, one domain, from an empty minor heap: 40,200
   delivered packets promote 11.1 words each, against 15.5 when every
   enqueue stamped the packet and allocated a queue cell. *)
let test_manyflow_promotion_budget () =
  let open Pcc_sim in
  let engine = Engine.create () in
  let topo =
    Exp_manyflow.topology engine ~rng:(Rng.create 42) ~n:300
      ~bandwidth:Exp_manyflow.default_bandwidth ~rtt:Exp_manyflow.default_rtt
  in
  Gc.full_major ();
  let promoted () =
    let _, p, _ = Gc.counters () in
    p
  in
  let before = promoted () in
  Engine.run ~until:1. engine;
  let words = promoted () -. before in
  let delivered =
    Pcc_net.Link.delivered_pkts (Pcc_scenario.Topology.links topo).(0)
  in
  Alcotest.(check int) "delivered" 40_200 delivered;
  let per_pkt = words /. float_of_int delivered in
  if per_pkt > 13. then
    Alcotest.failf "%.2f promoted words per delivered packet (> 13)" per_pkt

let suites =
  [
    ( "experiments.scaled",
      [
        Alcotest.test_case "fig7 loss" `Slow test_loss_rows;
        Alcotest.test_case "fig6 satellite" `Slow test_satellite_rows;
        Alcotest.test_case "fig9 buffer" `Slow test_buffer_rows;
        Alcotest.test_case "table1 interdc" `Slow test_interdc_rows;
        Alcotest.test_case "fig5 internet" `Slow test_internet_summary;
        Alcotest.test_case "fig10 incast" `Slow test_incast_rows;
        Alcotest.test_case "fig11 dynamic" `Slow test_dynamic_rows;
        Alcotest.test_case "fig15 fct" `Slow test_fct_rows;
        Alcotest.test_case "fig14 friendliness" `Slow test_friendliness_rows;
        Alcotest.test_case "sec4.4.2 high loss" `Slow test_high_loss_rows;
        Alcotest.test_case "theorems game" `Quick test_game_rows;
        Alcotest.test_case "ablation" `Slow test_ablation_rows;
        Alcotest.test_case "tables render" `Quick test_tables_render;
      ] );
    ( "experiments.memory",
      [
        Alcotest.test_case "fan-in state per flow" `Quick
          test_manyflow_per_flow_memory;
        Alcotest.test_case "fan-in promotion per packet" `Quick
          test_manyflow_promotion_budget;
      ] );
  ]
