open Pcc_sim
open Pcc_scenario

(* Integration tests of the controller family: Vivace's gradient ascent
   and the Proteus scavenger/primary dynamics, driven through the same
   scenario layer the experiments use. *)

let named n =
  match Transport.of_name n with Ok s -> s | Error m -> failwith m

let count_events c kind =
  Array.fold_left
    (fun n (e : Pcc_trace.Event.record) -> if e.kind = kind then n + 1 else n)
    0
    (Pcc_trace.Collector.events c)

(* Vivace converges on a clean static link: after the start-up transient
   the gradient walk holds the flow near capacity, and the controller
   records its decisions as Gradient_step trace events. *)
let test_vivace_gradient_convergence () =
  let c = Pcc_trace.Collector.create ~capacity:65536 () in
  Pcc_trace.Collector.install c;
  Fun.protect ~finally:Pcc_trace.Collector.uninstall @@ fun () ->
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  let bw = Units.mbps 30. in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:bw ~rtt:0.03
      ~buffer:(Units.bdp_bytes ~rate:bw ~rtt:0.03)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] (named "pcc-vivace") ]
      ()
  in
  Engine.run ~until:10. engine;
  let before = Topology.goodput_bytes (Topology.flows topo).(0) in
  Engine.run ~until:20. engine;
  let mbps =
    float_of_int
      ((Topology.goodput_bytes (Topology.flows topo).(0) - before) * 8)
    /. 10. /. 1e6
  in
  Alcotest.(check bool) "steady state near capacity" true (mbps > 24.);
  Alcotest.(check bool) "gradient steps traced" true
    (count_events c Pcc_trace.Event.Gradient_step > 20)

(* The defining Proteus behaviour, end to end: a scavenger saturates an
   idle bottleneck, collapses while a primary holds it, and reclaims the
   bandwidth after the primary departs. Class flips surface as
   Utility_switch trace events. *)
let test_scavenger_yields_and_reclaims () =
  let c = Pcc_trace.Collector.create ~capacity:65536 () in
  Pcc_trace.Collector.install c;
  Fun.protect ~finally:Pcc_trace.Collector.uninstall @@ fun () ->
  let engine = Engine.create () in
  let rng = Rng.create 42 in
  let bw = Units.mbps 30. in
  let w = 5. in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:bw ~rtt:0.03
      ~buffer:(Units.bdp_bytes ~rate:bw ~rtt:0.03)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~label:"background"
            (named "pcc-proteus-scavenger");
          Topology.flow ~route:[ 0; 1 ] ~label:"primary" ~start_at:(2. *. w)
            ~stop_at:(3. *. w) (named "pcc-proteus");
        ]
      ()
  in
  let bg = (Topology.flows topo).(0) in
  let sample t0 t1 =
    Engine.run ~until:t0 engine;
    let b = Topology.goodput_bytes bg in
    Engine.run ~until:t1 engine;
    float_of_int ((Topology.goodput_bytes bg - b) * 8) /. (t1 -. t0) /. 1e6
  in
  let before = sample (1.5 *. w) (2. *. w) in
  let during = sample (2.5 *. w) (3. *. w) in
  let after = sample (4.5 *. w) (5. *. w) in
  Alcotest.(check bool) "solo scavenger saturates the link" true (before > 20.);
  Alcotest.(check bool)
    (Printf.sprintf "collapses under the primary (%.1f -> %.1f Mbps)" before
       during)
    true
    (during < before /. 3.);
  Alcotest.(check bool)
    (Printf.sprintf "reclaims after departure (%.1f Mbps)" after)
    true
    (after > 0.7 *. before);
  Alcotest.(check bool) "class switches traced" true
    (count_events c Pcc_trace.Event.Utility_switch > 0)

(* Scenario.generate's transport menu restriction: every generated flow
   draws from the requested subset, and bad menus are rejected. *)
let test_generate_menu_restriction () =
  let menu = [ "pcc-vivace"; "pcc-proteus-scavenger" ] in
  let rng = Rng.create 9 in
  for _ = 1 to 25 do
    let s = Scenario.generate ~menu ~rng () in
    List.iter
      (fun f ->
        Alcotest.(check bool)
          ("menu respected: " ^ f.Scenario.transport)
          true
          (List.mem f.Scenario.transport menu))
      s.Scenario.flows
  done;
  (match Scenario.generate ~menu:[] ~rng () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty menu accepted");
  match Scenario.generate ~menu:[ "bogus-transport" ] ~rng () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown transport accepted"

(* Persisted-scenario version compatibility. The header is a 1-byte
   length + 6-byte "PCCSCN" magic, then the version as a zig-zag varint
   at byte 7: version 2 encodes as 0x04, version 1 as 0x02, version 3
   as 0x06. Version 1 blobs are layout-identical and must parse to the
   same scenario; unknown versions must be rejected at the header. *)
let test_persist_version_compat () =
  let rng = Rng.create 4 in
  let s = Scenario.generate ~rng () in
  let blob = Scenario.to_string s in
  Alcotest.(check char) "current blobs are version 2" '\x04' blob.[7];
  let v1 = Bytes.of_string blob in
  Bytes.set v1 7 '\x02';
  let parsed = Scenario.of_string (Bytes.to_string v1) in
  Alcotest.(check string) "v1 blob parses to the same scenario" blob
    (Scenario.to_string parsed);
  let v3 = Bytes.of_string blob in
  Bytes.set v3 7 '\x06';
  match Scenario.of_string (Bytes.to_string v3) with
  | exception Persist.Corrupt _ -> ()
  | _ -> Alcotest.fail "unsupported version accepted"

let suites =
  [
    ( "pcc.controllers",
      [
        Alcotest.test_case "vivace gradient convergence" `Quick
          test_vivace_gradient_convergence;
        Alcotest.test_case "scavenger yields and reclaims" `Quick
          test_scavenger_yields_and_reclaims;
        Alcotest.test_case "generate menu restriction" `Quick
          test_generate_menu_restriction;
        Alcotest.test_case "persist version compat" `Quick
          test_persist_version_compat;
      ] );
  ]
