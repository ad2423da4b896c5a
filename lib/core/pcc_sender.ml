open Pcc_sim
open Pcc_net

type config = {
  controller : Controller.config;
  monitor : Monitor.config;
  utility : Utility.t;
}

let default_config =
  {
    controller = Controller.default_config;
    monitor = Monitor.default_config;
    utility = Utility.safe ();
  }

let config_with ?utility ?rct ?eps_min ?mi_rtt ?init_rate ?algorithm () =
  let c = default_config in
  let controller =
    {
      c.controller with
      algorithm =
        (match algorithm with
        | Some a -> a
        | None -> c.controller.Controller.algorithm);
      rct = (match rct with Some v -> v | None -> c.controller.Controller.rct);
      eps_min =
        (match eps_min with Some v -> v | None -> c.controller.Controller.eps_min);
      init_rate =
        (match init_rate with
        | Some v -> v
        | None -> c.controller.Controller.init_rate);
    }
  in
  let monitor =
    match mi_rtt with
    | Some (lo, hi) -> { c.monitor with Monitor.rtt_lo = lo; rtt_hi = hi }
    | None -> c.monitor
  in
  {
    controller;
    monitor;
    utility = (match utility with Some u -> u | None -> c.utility);
  }

type t = { ctl : Controller.t; mon : Monitor.t; sender : Sender.t }

let controller t = t.ctl
let monitor t = t.mon
let current_rate t = Controller.rate t.ctl
let sender t = t.sender

let create engine ?(config = default_config) ?size ?on_complete ~rng ~out () =
  let ctl =
    Controller.create ~config:config.controller ~rng:(Rng.split rng) ()
  in
  let core, p =
    Rate_sender.create engine ~rate:(Controller.rate ctl)
      ~srtt:config.monitor.Monitor.initial_rtt ?size ~out ()
  in
  let sb = Rate_sender.scoreboard core and flow = Rate_sender.flow core in
  let rate_for_mi ~id =
    let r = Controller.rate_for_mi ctl ~id in
    Rate_pacer.set_rate p r;
    r
  in
  (* Tied after [Monitor.create]: its loss callback reads its own RTT. *)
  let mon = ref None in
  let on_mi_losses seqs =
    let now = Engine.now engine in
    let min_age = 0.8 *. Monitor.rtt_estimate (Option.get !mon) in
    let any =
      List.fold_left
        (fun acc s -> Scoreboard.mark_lost sb s ~now ~min_age || acc)
        false seqs
    in
    (* Kick whenever anything is waiting: the pacer pauses once fresh data
       runs out, and a tail loss must be able to restart it. *)
    if (any || Scoreboard.has_retx sb) && Rate_sender.active core then
      Rate_pacer.kick p
  in
  let m =
    Monitor.create engine config.monitor ~rng:(Rng.split rng)
      ~utility:config.utility
      ~cum_ack:(fun () -> Scoreboard.high_ack sb)
      ~rate_for_mi
      ~on_result:(fun r -> Controller.on_result ctl r)
      ~on_mi_losses
  in
  mon := Some m;
  Monitor.set_trace_id m flow;
  Controller.set_trace ctl ~id:flow ~now:(fun () -> Engine.now engine);
  Pcc_trace.Collector.register Pcc_trace.Event.Flow_scope ~id:flow "pcc";
  Controller.on_rate_change ctl (fun _new_rate ->
      (* Re-align the monitor interval with the rate change (§3.1); the
         fresh MI's rate_for_mi call retunes the pacer. *)
      if Rate_sender.active core then Monitor.realign m);
  let on_ack (a : Packet.ack) delivered =
    let rtt =
      if a.Packet.data_retx then None
      else Some (Engine.now engine -. a.Packet.data_sent_at)
    in
    List.iter
      (fun seq ->
        let rtt = if seq = a.Packet.acked_seq then rtt else None in
        Monitor.on_ack m ~seq ~rtt ~size:Units.mss)
      delivered;
    (* Even a duplicate ack still carries a fresh RTT sample. *)
    if delivered = [] then
      Monitor.on_ack m ~seq:a.Packet.acked_seq ~rtt ~size:Units.mss;
    Rate_sender.set_srtt core (Monitor.rtt_estimate m)
  in
  let period () = Float.max (2. *. Rate_sender.srtt core) 0.001 in
  (* Gap-based detection keeps retransmissions prompt; the monitor's
     deadline-based accounting is what feeds the utility. The sweep is the
     backstop for a tail loss whose MI a re-alignment discarded: without
     it the flow would stay silent forever. *)
  let on_lost seqs = List.iter (fun seq -> Monitor.on_lost m ~seq) seqs in
  let sender =
    Rate_sender.sender ?on_complete core p ~name:"pcc"
      ~on_start:(fun () ->
        Monitor.start m;
        period ())
      ~on_stop:(fun () -> Monitor.stop m)
      ~on_send:(fun seq -> Monitor.on_send m ~seq ~size:Units.mss)
      ~on_ack ~on_losses:on_lost ~on_tick:period ~stale_rtts:3.
      ~on_stale:on_lost
      ~rate:(fun () -> Controller.rate ctl)
  in
  { ctl; mon = m; sender }
