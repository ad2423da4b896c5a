open Pcc_sim
open Pcc_net

type config = {
  variant : Variant.t;
  pacing : bool;
  init_cwnd : float;
  min_rto : float;
  max_cwnd : float;
  dupthresh : int;
  initial_rtt : float;
}

let default_config variant =
  {
    variant;
    pacing = false;
    init_cwnd = 2.;
    min_rto = 0.2;
    max_cwnd = 1e6;
    dupthresh = 3;
    initial_rtt = 0.05;
  }

(* Per-sequence state (outstanding, SACKed, loss candidates, the
   retransmission queue and the transfer bound) lives in the shared
   [Scoreboard]; this module keeps only the window, recovery and RTO
   logic. *)

type t = {
  engine : Engine.t;
  cfg : config;
  out : Packet.t -> unit;
  flow : int;
  sb : Scoreboard.t;
  est : Rtt_estimator.t;
  ctx : Variant.ctx;
  mutable running : bool;
  mutable in_recovery : bool;
  mutable recover_seq : int;
  rto_timer : Engine.timer;
  on_rto : unit -> unit;  (* re-armed on [rto_timer], one per sender *)
  mutable pacing_pending : bool;
  mutable last_send : float;
  mutable sent_pkts : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable completed : bool;
  on_complete : (float -> unit) option;
}

let make_ctx engine cfg est =
  Variant.
    {
      cwnd = cfg.init_cwnd;
      ssthresh = cfg.max_cwnd;
      now = (fun () -> Engine.now engine);
      srtt = (fun () -> Rtt_estimator.srtt_or est cfg.initial_rtt);
      min_rtt =
        (fun () ->
          match Rtt_estimator.min_rtt est with
          | Some v -> v
          | None -> cfg.initial_rtt);
      max_rtt =
        (fun () ->
          match Rtt_estimator.max_rtt est with
          | Some v -> v
          | None -> cfg.initial_rtt);
      latest_rtt =
        (fun () ->
          match Rtt_estimator.latest est with
          | Some v -> v
          | None -> cfg.initial_rtt);
      mss = Units.mss;
    }

let cancel_rto t = Engine.cancel t.rto_timer

let effective_cwnd t =
  int_of_float (Float.min t.ctx.Variant.cwnd t.cfg.max_cwnd)

(* Trace: congestion-window change. [cause] 0 = ack-clocked growth,
   1 = fast-recovery entry, 2 = retransmission timeout. *)
let trace_cwnd t ~cause =
  if Pcc_trace.Collector.enabled () then
    Pcc_trace.Collector.emit Pcc_trace.Event.Cwnd
      ~time:(Engine.now t.engine) ~id:t.flow ~a:t.ctx.Variant.cwnd
      ~b:t.ctx.Variant.ssthresh ~i:cause

(* Next sequence to put on the wire: pending retransmissions first, then
   fresh data (bounded by the transfer size). *)
let next_to_send t =
  match Scoreboard.take_retx t.sb with
  | Some seq -> Some (seq, true)
  | None -> Option.map (fun seq -> (seq, false)) (Scoreboard.fresh_seq t.sb)

let rec arm_rto t =
  if
    (not (Engine.is_pending t.rto_timer))
    && Scoreboard.inflight t.sb > 0 && t.running
  then
    Engine.arm_in t.engine t.rto_timer ~after:(Rtt_estimator.rto t.est)
      t.on_rto

and on_timeout t =
  if t.running && not t.completed then begin
    t.timeouts <- t.timeouts + 1;
    let flight_at_timeout = Scoreboard.inflight t.sb in
    (* Go-back-N: everything unacked is presumed lost. *)
    Scoreboard.go_back_n t.sb;
    t.in_recovery <- false;
    t.ctx.Variant.ssthresh <-
      Float.max (float_of_int flight_at_timeout /. 2.) Variant.min_cwnd;
    t.ctx.Variant.cwnd <- Variant.min_cwnd;
    t.cfg.variant.Variant.on_timeout t.ctx;
    trace_cwnd t ~cause:2;
    Rtt_estimator.backoff t.est;
    try_send t
  end

and do_send t seq retx =
  let now = Engine.now t.engine in
  let pkt = Packet.data ~flow:t.flow ~seq ~size:Units.mss ~now ~retx in
  Scoreboard.record_send t.sb seq ~now;
  t.sent_pkts <- t.sent_pkts + 1;
  t.last_send <- now;
  t.out pkt;
  arm_rto t

and try_send t =
  if t.running && not t.completed then
    if t.cfg.pacing then pace_send t
    else begin
      let continue = ref true in
      while !continue do
        if
          Scoreboard.inflight t.sb < effective_cwnd t
          && Scoreboard.has_data t.sb
        then begin
          match next_to_send t with
          | Some (seq, retx) -> do_send t seq retx
          | None -> continue := false
        end
        else continue := false
      done
    end

and pace_send t =
  if
    (not t.pacing_pending)
    && Scoreboard.inflight t.sb < effective_cwnd t
    && Scoreboard.has_data t.sb
  then begin
    let now = Engine.now t.engine in
    let spacing =
      Rtt_estimator.srtt_or t.est t.cfg.initial_rtt
      /. Float.max t.ctx.Variant.cwnd 1.
    in
    let at = Float.max now (t.last_send +. spacing) in
    t.pacing_pending <- true;
    Engine.post t.engine ~at (fun () ->
        t.pacing_pending <- false;
        if
          t.running && (not t.completed)
          && Scoreboard.inflight t.sb < effective_cwnd t
        then begin
          match next_to_send t with
          | Some (seq, retx) ->
            do_send t seq retx;
            pace_send t
          | None -> ()
        end)
  end

let create engine cfg ?size ?on_complete ~out () =
  let est = Rtt_estimator.create ~min_rto:cfg.min_rto () in
  let flow = Packet.fresh_flow_id () in
  Pcc_trace.Collector.register Pcc_trace.Event.Flow_scope ~id:flow
    cfg.variant.Variant.name;
  let sb = Scoreboard.create ~dupthresh:cfg.dupthresh () in
  Option.iter
    (fun bytes -> Scoreboard.limit_pkts sb (Units.packets_of_bytes bytes))
    size;
  let rec t = {
    engine;
    cfg;
    out;
    flow;
    sb;
    est;
    ctx = make_ctx engine cfg est;
    running = false;
    in_recovery = false;
    recover_seq = 0;
    rto_timer = Engine.timer engine;
    on_rto = (fun () -> on_timeout t);
    pacing_pending = false;
    last_send = neg_infinity;
    sent_pkts = 0;
    timeouts = 0;
    fast_retransmits = 0;
    completed = false;
    on_complete;
  }
  in
  t

let complete t =
  if not t.completed then begin
    t.completed <- true;
    t.running <- false;
    cancel_rto t;
    match t.on_complete with
    | Some f -> f (Engine.now t.engine)
    | None -> ()
  end

let handle_ack t (a : Packet.ack) =
  if t.running then begin
    (* Karn's rule: no RTT sample from a retransmitted packet. *)
    if not a.Packet.data_retx then
      Rtt_estimator.sample t.est (Engine.now t.engine -. a.Packet.data_sent_at);
    let newly = List.length (Scoreboard.on_ack t.sb a) in
    if newly > 0 then begin
      Rtt_estimator.reset_backoff t.est;
      cancel_rto t;
      (* cwnd growth is suppressed during recovery, as in fast recovery. *)
      if not t.in_recovery then begin
        t.cfg.variant.Variant.on_ack t.ctx ~newly_acked:newly;
        if t.ctx.Variant.cwnd > t.cfg.max_cwnd then
          t.ctx.Variant.cwnd <- t.cfg.max_cwnd;
        trace_cwnd t ~cause:0
      end
    end;
    (* A hole is declared lost once [dupthresh] packets above it have been
       selectively acknowledged — the SACK analogue of 3 dup-acks. Fast
       retransmit resends the newly lost holes highest first. *)
    let lost =
      Scoreboard.detect_losses ~highest_first:true t.sb
        ~now:(Engine.now t.engine)
        ~min_age:(0.8 *. Rtt_estimator.srtt_or t.est t.cfg.initial_rtt)
    in
    if lost <> [] && not t.in_recovery then begin
      t.in_recovery <- true;
      t.recover_seq <- Scoreboard.next_seq t.sb;
      t.fast_retransmits <- t.fast_retransmits + 1;
      t.cfg.variant.Variant.on_loss t.ctx;
      trace_cwnd t ~cause:1
    end;
    if t.in_recovery && Scoreboard.high_ack t.sb >= t.recover_seq then
      t.in_recovery <- false;
    if Scoreboard.complete t.sb then complete t;
    arm_rto t;
    try_send t
  end

let start t =
  if (not t.running) && not t.completed then begin
    t.running <- true;
    try_send t
  end

let stop t =
  t.running <- false;
  cancel_rto t

let rate_estimate t =
  t.ctx.Variant.cwnd *. float_of_int Units.mss *. 8.
  /. Rtt_estimator.srtt_or t.est t.cfg.initial_rtt

let sender t =
  let name =
    t.cfg.variant.Variant.name ^ if t.cfg.pacing then "+pacing" else ""
  in
  let flow = t.flow in
  Sender.
    {
      flow;
      name;
      start = (fun () -> start t);
      stop = (fun () -> stop t);
      handle_ack = (fun a -> handle_ack t a);
      rate_estimate = (fun () -> rate_estimate t);
      acked_bytes = (fun () -> Scoreboard.acked_pkts t.sb * Units.mss);
      srtt = (fun () -> Rtt_estimator.srtt_or t.est t.cfg.initial_rtt);
      sent_pkts = (fun () -> t.sent_pkts);
      is_complete = (fun () -> t.completed);
    }

let cwnd t = t.ctx.Variant.cwnd
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let srtt t = Rtt_estimator.srtt t.est
