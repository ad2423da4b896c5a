open Pcc_sim
open Pcc_core

(* ------------------------------------------------------------------ *)
(* Monitor *)

(* Drive a monitor by hand: a fake clock via engine events, sends charged
   explicitly, acks delivered explicitly. *)

let fixed_rate _r ~id:_ = Units.mbps 10.

let make_monitor ?(rate_for_mi = fixed_rate ()) ?(cfg = Monitor.default_config)
    engine =
  let results = ref [] in
  let losses = ref [] in
  let mon =
    Monitor.create engine cfg ~rng:(Rng.create 3) ~utility:(Utility.safe ())
      ~cum_ack:(fun () -> -1) ~rate_for_mi
      ~on_result:(fun r -> results := r :: !results)
      ~on_mi_losses:(fun l -> losses := l @ !losses)
  in
  (mon, results, losses)

let test_monitor_mi_lifecycle () =
  let engine = Engine.create () in
  let mon, results, _ = make_monitor engine in
  Monitor.start mon;
  Alcotest.(check int) "first MI open" 0 (Monitor.current_mi_id mon);
  (* Send 20 packets and ack them all with a 10 ms RTT. *)
  for seq = 0 to 19 do
    Monitor.on_send mon ~seq ~size:Units.mss
  done;
  ignore
    (Engine.schedule engine ~at:0.01 (fun () ->
         for seq = 0 to 19 do
           Monitor.on_ack mon ~seq ~rtt:(Some 0.01) ~size:Units.mss
         done));
  Engine.run ~until:2. engine;
  Monitor.stop mon;
  Engine.run ~until:5. engine;
  match List.rev !results with
  | r :: _ ->
    Alcotest.(check int) "id 0" 0 r.Monitor.id;
    Alcotest.(check int) "sent" 20 r.Monitor.sent_pkts;
    Alcotest.(check int) "acked" 20 r.Monitor.acked_pkts;
    Alcotest.(check (float 1e-9)) "no loss" 0. r.Monitor.loss;
    (match r.Monitor.avg_rtt with
    | Some v -> Alcotest.(check (float 1e-6)) "avg rtt" 0.01 v
    | None -> Alcotest.fail "expected rtt")
  | [] -> Alcotest.fail "no result"

let test_monitor_loss_accounting () =
  let engine = Engine.create () in
  let mon, results, losses = make_monitor engine in
  Monitor.start mon;
  for seq = 0 to 9 do
    Monitor.on_send mon ~seq ~size:Units.mss
  done;
  (* Ack only even sequences. *)
  ignore
    (Engine.schedule engine ~at:0.01 (fun () ->
         for seq = 0 to 9 do
           if seq mod 2 = 0 then
             Monitor.on_ack mon ~seq ~rtt:(Some 0.01) ~size:Units.mss
         done));
  Monitor.stop mon;
  Engine.run ~until:10. engine;
  (match List.rev !results with
  | r :: _ -> Alcotest.(check (float 1e-9)) "half lost" 0.5 r.Monitor.loss
  | [] -> Alcotest.fail "no result");
  Alcotest.(check (list int)) "unacked reported lost" [ 1; 3; 5; 7; 9 ]
    (List.sort compare !losses)

let test_monitor_on_lost_resolves_early () =
  let engine = Engine.create () in
  let mon, results, _ = make_monitor engine in
  Monitor.start mon;
  Monitor.on_send mon ~seq:0 ~size:Units.mss;
  Monitor.on_send mon ~seq:1 ~size:Units.mss;
  ignore
    (Engine.schedule engine ~at:0.01 (fun () ->
         Monitor.on_ack mon ~seq:0 ~rtt:(Some 0.01) ~size:Units.mss;
         (* Gap detection resolves seq 1 as lost without waiting. *)
         Monitor.on_lost mon ~seq:1));
  Monitor.stop mon;
  Engine.run ~until:0.1 engine;
  (* The MI should have evaluated promptly (all packets resolved), well
     before the fallback deadline. *)
  match List.rev !results with
  | r :: _ ->
    Alcotest.(check int) "acked" 1 r.Monitor.acked_pkts;
    Alcotest.(check (float 1e-9)) "loss 50%" 0.5 r.Monitor.loss
  | [] -> Alcotest.fail "expected prompt evaluation"

let test_monitor_results_in_order () =
  let engine = Engine.create () in
  let mon, results, _ = make_monitor engine in
  Monitor.start mon;
  (* Let several MIs roll over naturally with no traffic; empty MIs
     evaluate immediately at close. *)
  Engine.run ~until:2. engine;
  Monitor.stop mon;
  Engine.run ~until:3. engine;
  let ids = List.rev_map (fun r -> r.Monitor.id) !results in
  let sorted = List.sort compare ids in
  Alcotest.(check (list int)) "in id order" sorted ids;
  Alcotest.(check bool) "several MIs" true (List.length ids >= 3)

let test_monitor_realign_discards_fragment () =
  let engine = Engine.create () in
  let mon, results, losses = make_monitor engine in
  Monitor.start mon;
  Monitor.on_send mon ~seq:0 ~size:Units.mss;
  let id_before = Monitor.current_mi_id mon in
  Monitor.realign mon;
  Alcotest.(check int) "new MI" (id_before + 1) (Monitor.current_mi_id mon);
  Monitor.stop mon;
  Engine.run ~until:5. engine;
  (* The fragment (id 0) must not produce a result or loss report. *)
  Alcotest.(check bool) "fragment discarded" true
    (not (List.exists (fun r -> r.Monitor.id = id_before) !results));
  Alcotest.(check (list int)) "no phantom losses" [] !losses

let test_monitor_duration_respects_min_pkts () =
  (* At 1 Mbps the 10-packet send time (120 ms) exceeds 2.2 RTT (66 ms):
     the MI stretches toward the packet floor but the stretch is capped
     at 4 RTT. *)
  let engine = Engine.create () in
  let seen = ref [] in
  let rate_for_mi ~id:_ =
    seen := Engine.now engine :: !seen;
    Units.mbps 1.
  in
  let cfg = { Monitor.default_config with Monitor.initial_rtt = 0.03 } in
  let mon, _, _ = make_monitor ~rate_for_mi ~cfg engine in
  Monitor.start mon;
  Engine.run ~until:1. engine;
  Monitor.stop mon;
  match List.rev !seen with
  | t0 :: t1 :: _ ->
    let d = t1 -. t0 in
    Alcotest.(check bool) "MI stretched past 2.2 RTT" true (d >= 0.066);
    Alcotest.(check bool) "stretch capped at 4 RTT" true (d <= 0.121)
  | _ -> Alcotest.fail "expected at least two MIs"

(* ------------------------------------------------------------------ *)
(* Controller *)

let result ~id ~rate ~utility =
  Monitor.
    {
      id;
      rate;
      start_time = 0.;
      duration = 0.05;
      sent_pkts = 100;
      acked_pkts = 100;
      sent_bytes = 100 * 1500;
      acked_bytes = 100 * 1500;
      loss = 0.;
      avg_rtt = Some 0.03;
      prev_avg_rtt = Some 0.03;
      utility;
    }

let test_controller_starting_doubles () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let r0 = Controller.rate_for_mi ctl ~id:0 in
  let r1 = Controller.rate_for_mi ctl ~id:1 in
  let r2 = Controller.rate_for_mi ctl ~id:2 in
  Alcotest.(check (float 1e-6)) "doubles" (r0 *. 2.) r1;
  Alcotest.(check (float 1e-6)) "doubles again" (r1 *. 2.) r2;
  Alcotest.(check bool) "still starting" true (Controller.phase ctl = Controller.Starting)

let test_controller_starting_exits_on_utility_drop () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let r0 = Controller.rate_for_mi ctl ~id:0 in
  let r1 = Controller.rate_for_mi ctl ~id:1 in
  let r2 = Controller.rate_for_mi ctl ~id:2 in
  Controller.on_result ctl (result ~id:0 ~rate:r0 ~utility:10.);
  (* A single utility fall does not end the startup (noise tolerance)... *)
  Controller.on_result ctl (result ~id:1 ~rate:r1 ~utility:5.);
  Alcotest.(check bool) "one fall tolerated" true
    (Controller.phase ctl = Controller.Starting);
  (* ...but a second consecutive fall exits to the best rate seen. *)
  Controller.on_result ctl (result ~id:2 ~rate:r2 ~utility:4.);
  Alcotest.(check bool) "entered decision" true
    (Controller.phase ctl = Controller.Decision);
  Alcotest.(check (float 1e-6)) "reverted to best rate" r0
    (Controller.rate ctl)

let test_controller_starting_tolerates_noise_blip () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let rates = List.init 5 (fun id -> (id, Controller.rate_for_mi ctl ~id)) in
  (* Utilities: rising, one blip down, rising again — startup survives. *)
  let utilities = [ 1.; 2.; 1.5; 4.; 8. ] in
  List.iter2
    (fun (id, rate) u -> Controller.on_result ctl (result ~id ~rate ~utility:u))
    rates utilities;
  Alcotest.(check bool) "still starting" true
    (Controller.phase ctl = Controller.Starting)

let feed_decision ctl ~base ~up_u ~down_u ~first_id =
  (* Consume the four trial MIs and answer them. *)
  let ids = List.init 4 (fun i -> first_id + i) in
  let rates = List.map (fun id -> (id, Controller.rate_for_mi ctl ~id)) ids in
  List.iter
    (fun (id, r) ->
      let u = if r > base then up_u else down_u in
      Controller.on_result ctl (result ~id ~rate:r ~utility:u))
    rates

let to_decision ctl =
  (* Drive Starting into Decision with two consecutive utility drops;
     subsequent MI ids start at 3. *)
  let r0 = Controller.rate_for_mi ctl ~id:0 in
  let r1 = Controller.rate_for_mi ctl ~id:1 in
  let r2 = Controller.rate_for_mi ctl ~id:2 in
  Controller.on_result ctl (result ~id:0 ~rate:r0 ~utility:10.);
  Controller.on_result ctl (result ~id:1 ~rate:r1 ~utility:5.);
  Controller.on_result ctl (result ~id:2 ~rate:r2 ~utility:4.);
  Controller.rate ctl

let test_controller_decision_moves_up () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let base = to_decision ctl in
  feed_decision ctl ~base ~up_u:10. ~down_u:5. ~first_id:3;
  Alcotest.(check bool) "adjusting" true
    (Controller.phase ctl = Controller.Adjusting);
  Alcotest.(check bool) "rate increased" true (Controller.rate ctl > base)

let test_controller_decision_moves_down () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let base = to_decision ctl in
  feed_decision ctl ~base ~up_u:5. ~down_u:10. ~first_id:3;
  Alcotest.(check bool) "rate decreased" true (Controller.rate ctl < base)

let test_controller_inconclusive_grows_eps () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let base = to_decision ctl in
  let eps0 = Controller.eps ctl in
  (* Make the two pairs disagree: answer by id parity instead of rate. *)
  let ids = List.init 4 (fun i -> 3 + i) in
  let rates = List.map (fun id -> (id, Controller.rate_for_mi ctl ~id)) ids in
  List.iteri
    (fun i (id, r) ->
      let u = if i < 2 then (if r > base then 10. else 5.)
              else if r > base then 5. else 10. in
      Controller.on_result ctl (result ~id ~rate:r ~utility:u))
    rates;
  Alcotest.(check bool) "still decision" true
    (Controller.phase ctl = Controller.Decision);
  Alcotest.(check (float 1e-9)) "eps grew" (eps0 +. 0.01) (Controller.eps ctl);
  Alcotest.(check (float 1e-6)) "rate unchanged" base (Controller.rate ctl);
  Alcotest.(check int) "decision counted" 1 (Controller.decisions ctl)

let test_controller_rct_randomizes_order () =
  (* Across many controllers, the first trial MI should sometimes be the
     up rate and sometimes the down rate. *)
  let ups = ref 0 in
  for seed = 1 to 40 do
    let ctl = Controller.create ~rng:(Rng.create seed) () in
    let base = to_decision ctl in
    let r = Controller.rate_for_mi ctl ~id:3 in
    if r > base then incr ups
  done;
  Alcotest.(check bool) "order randomized" true (!ups > 5 && !ups < 35)

let test_controller_adjusting_accelerates_and_reverts () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let base = to_decision ctl in
  feed_decision ctl ~base ~up_u:10. ~down_u:5. ~first_id:3;
  let r1 = Controller.rate ctl in
  (* Confirm step 1 with rising utility: the controller plans step 2. *)
  Controller.on_result ctl (result ~id:7 ~rate:(Controller.rate_for_mi ctl ~id:7) ~utility:20.);
  let r2 = Controller.rate ctl in
  Alcotest.(check bool) "accelerating" true (r2 > r1);
  (* Two consecutive falling utilities revert to the last good rate. *)
  Controller.on_result ctl (result ~id:8 ~rate:(Controller.rate_for_mi ctl ~id:8) ~utility:1.);
  Alcotest.(check bool) "single fall holds" true
    (Controller.phase ctl = Controller.Adjusting);
  Controller.on_result ctl (result ~id:9 ~rate:(Controller.rate_for_mi ctl ~id:9) ~utility:0.5);
  Alcotest.(check bool) "second fall reverts to decision" true
    (Controller.phase ctl = Controller.Decision);
  Alcotest.(check bool) "reverted below the failed rate" true
    (Controller.rate ctl < r2)

let test_controller_stale_results_ignored () =
  let ctl = Controller.create ~rng:(Rng.create 1) () in
  let r0 = Controller.rate_for_mi ctl ~id:0 in
  let r1 = Controller.rate_for_mi ctl ~id:1 in
  let r2 = Controller.rate_for_mi ctl ~id:2 in
  let r3 = Controller.rate_for_mi ctl ~id:3 in
  Controller.on_result ctl (result ~id:0 ~rate:r0 ~utility:10.);
  Controller.on_result ctl (result ~id:1 ~rate:r1 ~utility:5.);
  Controller.on_result ctl (result ~id:2 ~rate:r2 ~utility:4.);
  (* id 3 was planned by the Starting phase; its late result must not
     perturb the Decision state. *)
  let base = Controller.rate ctl in
  Controller.on_result ctl (result ~id:3 ~rate:r3 ~utility:1000.);
  Alcotest.(check (float 1e-6)) "unperturbed" base (Controller.rate ctl);
  Alcotest.(check bool) "still decision" true
    (Controller.phase ctl = Controller.Decision)

let test_controller_min_rate_floor () =
  (* A floor above the initial rate clamps the very first plan. *)
  let config =
    {
      Controller.default_config with
      Controller.min_rate = Units.mbps 5.;
      init_rate = Units.mbps 1.;
    }
  in
  let ctl = Controller.create ~config ~rng:(Rng.create 1) () in
  Alcotest.(check bool) "base clamped up" true
    (Controller.rate ctl >= Units.mbps 5.);
  Alcotest.(check bool) "planned rates clamped" true
    (Controller.rate_for_mi ctl ~id:0 >= Units.mbps 5.)

let test_controller_max_rate_ceiling () =
  let config =
    { Controller.default_config with Controller.max_rate = Units.mbps 2. }
  in
  let ctl = Controller.create ~config ~rng:(Rng.create 1) () in
  (* Doubling forever cannot exceed the ceiling. *)
  let last = ref 0. in
  for id = 0 to 20 do
    last := Controller.rate_for_mi ctl ~id
  done;
  Alcotest.(check bool) "ceiling holds" true (!last <= Units.mbps 2. +. 1.)

let prop_controller_rate_bounded =
  QCheck.Test.make
    ~name:"controller rate stays within [min_rate, max_rate] under any            result stream"
    ~count:100
    QCheck.(pair small_int (list (pair (float_range (-50.) 200.) bool)))
    (fun (seed, events) ->
      let config =
        {
          Controller.default_config with
          Controller.min_rate = Units.mbps 1.;
          max_rate = Units.mbps 500.;
          init_rate = Units.mbps 2.;
        }
      in
      let ctl = Controller.create ~config ~rng:(Rng.create seed) () in
      let id = ref 0 in
      List.for_all
        (fun (utility, deliver) ->
          let mi = !id in
          incr id;
          let rate = Controller.rate_for_mi ctl ~id:mi in
          if deliver then Controller.on_result ctl (result ~id:mi ~rate ~utility);
          rate >= Units.mbps 1. -. 1.
          && rate <= Units.mbps 500. +. 1.
          && Controller.rate ctl >= Units.mbps 1. -. 1.
          && Controller.rate ctl <= Units.mbps 500. +. 1.)
        events)

let prop_controller_trials_bracket_base =
  QCheck.Test.make
    ~name:"decision trials stay within (1±eps_max) of the base rate"
    ~count:60
    QCheck.small_int
    (fun seed ->
      let ctl = Controller.create ~rng:(Rng.create seed) () in
      let base = to_decision ctl in
      let ok = ref true in
      for mi = 3 to 6 do
        let r = Controller.rate_for_mi ctl ~id:mi in
        let ratio = r /. base in
        if ratio < 1. -. 0.051 || ratio > 1. +. 0.051 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Pcc_sender end-to-end basics (detailed scenarios live in
   test_scenario.ml) *)

let test_pcc_sender_completes_transfer () =
  let engine = Engine.create () in
  let rng = Rng.create 8 in
  let topo =
    Pcc_scenario.Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 20.)
      ~rtt:0.02 ~buffer:(Units.kib 64) ~loss:0.03
      ~flows:
        [
          Pcc_scenario.Topology.flow ~route:[ 0; 1 ] ~size:(300 * Units.mss)
            (Pcc_scenario.Transport.pcc ());
        ]
      ()
  in
  Engine.run ~until:60. engine;
  let f = (Pcc_scenario.Topology.flows topo).(0) in
  Alcotest.(check bool) "complete despite 3% loss" true
    (f.Pcc_scenario.Topology.sender.Pcc_net.Sender.is_complete ())

(* The rate-based senders share one core (Pcc_net.Rate_sender), so its
   lifecycle contract is checked for each of them. *)
let rate_senders =
  Pcc_scenario.Transport.
    [ ("pcc", pcc ()); ("sabul", sabul); ("pcp", pcp) ]

let test_rate_sender_stop_silences () =
  List.iter
    (fun (name, spec) ->
      let engine = Engine.create () in
      let rng = Rng.create 8 in
      let topo =
        Pcc_scenario.Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 20.)
          ~rtt:0.02 ~buffer:(Units.kib 64)
          ~flows:[ Pcc_scenario.Topology.flow ~route:[ 0; 1 ] ~stop_at:1. spec ]
          ()
      in
      Engine.run ~until:1.2 engine;
      let f = (Pcc_scenario.Topology.flows topo).(0) in
      let sent = f.Pcc_scenario.Topology.sender.Pcc_net.Sender.sent_pkts () in
      Engine.run ~until:3. engine;
      Alcotest.(check int)
        (name ^ ": no sends after stop")
        sent
        (f.Pcc_scenario.Topology.sender.Pcc_net.Sender.sent_pkts ()))
    rate_senders

(* One flow over a 20 Mbps, 20 ms path with 2% loss, wired by hand so the
   test holds the sender and its completion callback. *)
let wire_rate_sender ?size ?on_complete spec =
  let open Pcc_net in
  let engine = Engine.create () in
  let rng = Rng.create 8 in
  let link =
    Link.create engine ~loss:0.02 ~rng:(Rng.split rng)
      ~bandwidth:(Units.mbps 20.) ~delay:0.01
      ~queue:(Queue_disc.droptail_bytes ~capacity:(Units.kib 64) ())
      ()
  in
  let back = Delay_line.create engine ~delay:0.01 () in
  let sender =
    Pcc_scenario.Transport.build engine ~rng:(Rng.split rng) ?size ?on_complete
      ~rtt_hint:0.02 spec ~out:(Link.send link)
  in
  let receiver = Receiver.create engine ~ack_out:(Delay_line.send back) in
  Link.set_receiver link (Receiver.on_packet receiver);
  Delay_line.set_receiver back (fun p ->
      match p.Packet.kind with
      | Packet.Ack a -> sender.Sender.handle_ack a
      | Packet.Data _ -> ());
  (engine, sender)

let test_rate_sender_completes_once () =
  List.iter
    (fun (name, spec) ->
      let fired = ref 0 in
      let engine, sender =
        wire_rate_sender ~size:(200 * Units.mss)
          ~on_complete:(fun _ -> incr fired)
          spec
      in
      sender.Pcc_net.Sender.start ();
      Engine.run ~until:60. engine;
      Alcotest.(check bool)
        (name ^ ": complete") true
        (sender.Pcc_net.Sender.is_complete ());
      Alcotest.(check int) (name ^ ": on_complete fired once") 1 !fired)
    rate_senders

let test_rate_sender_start_idempotent () =
  List.iter
    (fun (name, spec) ->
      let sent ~twice =
        let engine, sender = wire_rate_sender spec in
        sender.Pcc_net.Sender.start ();
        Engine.run ~until:0.5 engine;
        if twice then sender.Pcc_net.Sender.start ();
        Engine.run ~until:2. engine;
        sender.Pcc_net.Sender.sent_pkts ()
      in
      Alcotest.(check int)
        (name ^ ": a second start sends nothing more")
        (sent ~twice:false) (sent ~twice:true))
    rate_senders

(* Every rate change discards the open MI (§3.1's re-alignment), and a
   discarded MI never returns a result, so its plan is only dropped when
   a later result arrives. One PCC flow on the Fig. 6 satellite path
   (42 Mbps, 800 ms RTT, 0.74% loss) realigns throughout its life; its
   controller must hold plans for the MIs in flight, not one per MI it
   ever discarded. *)
let test_pcc_sender_plan_bounded () =
  let open Pcc_net in
  let engine = Engine.create () in
  let rng = Rng.create 6 in
  let rtt = 0.8 in
  let link =
    Link.create engine ~loss:0.0074 ~rng:(Rng.split rng)
      ~bandwidth:(Units.mbps 42.) ~delay:(rtt /. 2.)
      ~queue:(Queue_disc.droptail_bytes ~capacity:375_000 ())
      ()
  in
  let back = Delay_line.create engine ~delay:(rtt /. 2.) () in
  let config =
    let c =
      Pcc_sender.config_with
        ~init_rate:(2. *. float_of_int (Units.mss * 8) /. rtt)
        ()
    in
    {
      c with
      Pcc_sender.monitor = { c.Pcc_sender.monitor with Monitor.initial_rtt = rtt };
    }
  in
  let pcc =
    Pcc_sender.create engine ~config ~rng:(Rng.split rng)
      ~out:(Link.send link) ()
  in
  let sender = Pcc_sender.sender pcc in
  let receiver = Receiver.create engine ~ack_out:(Delay_line.send back) in
  Link.set_receiver link (Receiver.on_packet receiver);
  Delay_line.set_receiver back (fun p ->
      match p.Packet.kind with
      | Packet.Ack a -> sender.Sender.handle_ack a
      | Packet.Data _ -> ());
  sender.Sender.start ();
  let ctl = Pcc_sender.controller pcc in
  List.iter
    (fun at ->
      Engine.run ~until:at engine;
      Alcotest.(check bool)
        (Printf.sprintf "plans held at %gs (%d)" at (Controller.planned ctl))
        true
        (Controller.planned ctl <= 4))
    [ 5.; 20.; 40.; 80. ];
  Alcotest.(check bool) "a long-lived flow" true
    (Monitor.current_mi_id (Pcc_sender.monitor pcc) >= 30)

let suites =
  [
    ( "pcc.monitor",
      [
        Alcotest.test_case "mi lifecycle" `Quick test_monitor_mi_lifecycle;
        Alcotest.test_case "loss accounting" `Quick test_monitor_loss_accounting;
        Alcotest.test_case "on_lost resolves early" `Quick
          test_monitor_on_lost_resolves_early;
        Alcotest.test_case "results in order" `Quick test_monitor_results_in_order;
        Alcotest.test_case "realign discards fragment" `Quick
          test_monitor_realign_discards_fragment;
        Alcotest.test_case "min pkts duration" `Quick
          test_monitor_duration_respects_min_pkts;
      ] );
    ( "pcc.controller",
      [
        Alcotest.test_case "starting doubles" `Quick test_controller_starting_doubles;
        Alcotest.test_case "starting exit" `Quick
          test_controller_starting_exits_on_utility_drop;
        Alcotest.test_case "starting noise blip" `Quick
          test_controller_starting_tolerates_noise_blip;
        Alcotest.test_case "decision up" `Quick test_controller_decision_moves_up;
        Alcotest.test_case "decision down" `Quick test_controller_decision_moves_down;
        Alcotest.test_case "inconclusive eps" `Quick
          test_controller_inconclusive_grows_eps;
        Alcotest.test_case "rct random order" `Quick
          test_controller_rct_randomizes_order;
        Alcotest.test_case "adjusting ladder" `Quick
          test_controller_adjusting_accelerates_and_reverts;
        Alcotest.test_case "stale ignored" `Quick test_controller_stale_results_ignored;
        Alcotest.test_case "min rate floor" `Quick test_controller_min_rate_floor;
        Alcotest.test_case "max rate ceiling" `Quick test_controller_max_rate_ceiling;
        QCheck_alcotest.to_alcotest prop_controller_rate_bounded;
        QCheck_alcotest.to_alcotest prop_controller_trials_bracket_base;
      ] );
    ( "pcc.sender",
      [
        Alcotest.test_case "transfer completes" `Slow
          test_pcc_sender_completes_transfer;
        Alcotest.test_case "stop silences" `Quick test_rate_sender_stop_silences;
        Alcotest.test_case "on_complete fires once" `Quick
          test_rate_sender_completes_once;
        Alcotest.test_case "start is idempotent" `Quick
          test_rate_sender_start_idempotent;
        Alcotest.test_case "plan bounded under realigns" `Quick
          test_pcc_sender_plan_bounded;
      ] );
  ]
