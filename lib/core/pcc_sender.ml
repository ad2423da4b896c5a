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

let config_with ?utility ?rct ?eps_min ?eps_max ?mi_rtt ?init_rate ?algorithm
    () =
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
      eps_max =
        (match eps_max with Some v -> v | None -> c.controller.Controller.eps_max);
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

type t = {
  engine : Engine.t;
  cfg : config;
  flow : int;
  out : Packet.t -> unit;
  sb : Scoreboard.t;
  ctl : Controller.t;
  mutable mon : Monitor.t option;  (* tied after create (cyclic deps) *)
  mutable pacer : Rate_pacer.t option;
  mutable watchdog : unit -> unit;  (* one closure, re-posted each round *)
  mutable running : bool;
  mutable completed : bool;
  mutable sent_pkts : int;
  on_complete : (float -> unit) option;
}

let monitor t = match t.mon with Some m -> m | None -> assert false
let pacer t = match t.pacer with Some p -> p | None -> assert false
let controller t = t.ctl
let current_rate t = Controller.rate t.ctl

let finish t =
  if not t.completed then begin
    t.completed <- true;
    t.running <- false;
    Rate_pacer.stop (pacer t);
    Monitor.stop (monitor t);
    match t.on_complete with
    | Some f -> f (Engine.now t.engine)
    | None -> ()
  end

let send_one t () =
  if t.completed || not t.running then None
  else begin
    let seq, retx =
      match Scoreboard.take_retx t.sb with
      | Some seq -> (Some seq, true)
      | None -> (Scoreboard.fresh_seq t.sb, false)
    in
    match seq with
    | None -> None
    | Some seq ->
      let now = Engine.now t.engine in
      let pkt = Packet.data ~flow:t.flow ~seq ~size:Units.mss ~now ~retx in
      Scoreboard.record_send t.sb seq ~now;
      t.sent_pkts <- t.sent_pkts + 1;
      Monitor.on_send (monitor t) ~seq ~size:Units.mss;
      t.out pkt;
      Some Units.mss
  end

let handle_ack t (a : Packet.ack) =
  if t.running && not t.completed then begin
    let now = Engine.now t.engine in
    let rtt =
      if a.Packet.data_retx then None else Some (now -. a.Packet.data_sent_at)
    in
    let delivered = Scoreboard.on_ack t.sb a in
    let mon0 = monitor t in
    List.iter
      (fun seq ->
        let rtt = if seq = a.Packet.acked_seq then rtt else None in
        Monitor.on_ack mon0 ~seq ~rtt ~size:Units.mss)
      delivered;
    (* Even a duplicate ack still carries a fresh RTT sample. *)
    if delivered = [] then
      Monitor.on_ack mon0 ~seq:a.Packet.acked_seq ~rtt ~size:Units.mss;
    (* Gap-based detection keeps retransmissions prompt; the monitor's
       deadline-based accounting is what feeds the utility. *)
    let mon = monitor t in
    let min_age = 0.8 *. Monitor.rtt_estimate mon in
    let losses = Scoreboard.detect_losses t.sb ~now ~min_age in
    List.iter (fun seq -> Monitor.on_lost mon ~seq) losses;
    if Scoreboard.complete t.sb then finish t
    else Rate_pacer.kick (pacer t)
  end

(* Retransmission-timeout backstop (UDT's EXP timer): without it a tail
   loss whose monitor interval was discarded by a re-alignment would leave
   the flow silent forever — SACK gaps need successor traffic to detect
   anything. Runs as [t.watchdog], which posts itself again. *)
let watchdog t =
  if t.running && not t.completed then begin
    let now = Engine.now t.engine in
    let rtt = Monitor.rtt_estimate (monitor t) in
    let lost = Scoreboard.sweep_stale t.sb ~now ~min_age:(3. *. rtt) in
    List.iter (fun seq -> Monitor.on_lost (monitor t) ~seq) lost;
    if lost <> [] || Scoreboard.has_retx t.sb then Rate_pacer.kick (pacer t);
    Engine.post_in t.engine ~after:(Float.max (2. *. rtt) 0.001) t.watchdog
  end

let create engine ?(config = default_config) ?size ?on_complete ~rng ~out () =
  let flow = Packet.fresh_flow_id () in
  let sb = Scoreboard.create () in
  (match size with
  | Some bytes -> Scoreboard.limit_pkts sb (Units.packets_of_bytes bytes)
  | None -> ());
  let ctl = Controller.create ~config:config.controller ~rng:(Rng.split rng) () in
  let t =
    {
      engine;
      cfg = config;
      flow;
      out;
      sb;
      ctl;
      mon = None;
      pacer = None;
      watchdog = ignore;
      running = false;
      completed = false;
      sent_pkts = 0;
      on_complete;
    }
  in
  let p = Rate_pacer.create engine ~rate:(Controller.rate ctl) ~send:(send_one t) in
  t.pacer <- Some p;
  t.watchdog <- (fun () -> watchdog t);
  let rate_for_mi ~id =
    let r = Controller.rate_for_mi ctl ~id in
    Rate_pacer.set_rate p r;
    r
  in
  let on_mi_losses seqs =
    let now = Engine.now engine in
    let mon = monitor t in
    let min_age = 0.8 *. Monitor.rtt_estimate mon in
    let any =
      List.fold_left
        (fun acc s -> Scoreboard.mark_lost sb s ~now ~min_age || acc)
        false seqs
    in
    (* Kick whenever anything is waiting: the pacer pauses once fresh data
       runs out, and a tail loss must be able to restart it. *)
    if (any || Scoreboard.has_retx sb) && t.running && not t.completed then
      Rate_pacer.kick p
  in
  let mon =
    Monitor.create engine config.monitor ~rng:(Rng.split rng)
      ~utility:config.utility
      ~cum_ack:(fun () -> Scoreboard.high_ack sb)
      ~rate_for_mi
      ~on_result:(fun r -> Controller.on_result ctl r)
      ~on_mi_losses
  in
  t.mon <- Some mon;
  Monitor.set_trace_id mon flow;
  Controller.set_trace ctl ~id:flow ~now:(fun () -> Engine.now engine);
  Pcc_trace.Collector.register Pcc_trace.Event.Flow_scope ~id:flow "pcc";
  Controller.on_rate_change ctl (fun _new_rate ->
      (* Re-align the monitor interval with the rate change (§3.1); the
         fresh MI's rate_for_mi call retunes the pacer. *)
      if t.running && not t.completed then Monitor.realign mon);
  t

let start t =
  if (not t.running) && not t.completed then begin
    t.running <- true;
    Monitor.start (monitor t);
    Rate_pacer.start (pacer t);
    Engine.post_in t.engine
      ~after:(Float.max (2. *. Monitor.rtt_estimate (monitor t)) 0.001)
      t.watchdog
  end

let stop t =
  t.running <- false;
  Rate_pacer.stop (pacer t);
  Monitor.stop (monitor t)

let sender t =
  let flow = t.flow in
  Sender.
    {
      flow;
      name = "pcc";
      start = (fun () -> start t);
      stop = (fun () -> stop t);
      handle_ack = (fun a -> handle_ack t a);
      rate_estimate = (fun () -> Controller.rate t.ctl);
      acked_bytes = (fun () -> Scoreboard.acked_pkts t.sb * Units.mss);
      srtt = (fun () -> Monitor.rtt_estimate (monitor t));
      sent_pkts = (fun () -> t.sent_pkts);
      is_complete = (fun () -> t.completed);
    }
