open Pcc_sim
open Pcc_net

type result = {
  id : int;
  rate : float;
  start_time : float;
  duration : float;
  sent_pkts : int;
  acked_pkts : int;
  sent_bytes : int;
  acked_bytes : int;
  loss : float;
  avg_rtt : float option;
  prev_avg_rtt : float option;
  utility : float;
}

type config = {
  min_pkts : int;
  rtt_lo : float;
  rtt_hi : float;
  eval_margin : float;
  initial_rtt : float;
}

let default_config =
  { min_pkts = 10; rtt_lo = 1.7; rtt_hi = 2.2; eval_margin = 2.0; initial_rtt = 0.05 }

(* The floats rewritten per ack live in float-only records, which OCaml
   stores unboxed: an update is a plain store, with no box and no write
   barrier into a record that is often already in the major heap. *)
type mi_floats = {
  mutable close_time : float;
  mutable rtt_sum : float;
  mutable planned_dur : float;
  mutable rtt_early_sum : float;  (* samples in the MI's first quarter *)
  mutable rtt_late_sum : float;  (* samples in (or after) the last quarter *)
}

type rtts = {
  mutable est : float;
  mutable latest : float;
  mutable min : float;  (* lifetime minimum RTT sample (∞ before any) *)
}

type mi = {
  mi_id : int;
  mi_rate : float;
  start : float;
  f : mi_floats;
  mutable closed : bool;
  mutable evaluated : bool;
  mutable rollover : Engine.timer option;
  mutable fallback : Engine.timer option;
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  mutable acked_pkts : int;
  mutable acked_bytes : int;
  mutable rtt_cnt : int;
  mutable rtt_early_cnt : int;
  mutable rtt_late_cnt : int;
  (* Sequences charged to this MI and still unresolved. A sequence is
     unresolved by this MI exactly while [seq_owner] still names this MI;
     a later MI re-sending it steals ownership (the ack credit follows
     the latest transmission) without decrementing [unresolved] — the
     stolen sequence then counts as this MI's loss at evaluation,
     matching the hash-table version. *)
  mutable unresolved : int;
}

(* What became of an MI awaiting in-order release. *)
type fate = Unsettled | Ready of result | Discarded

type t = {
  engine : Engine.t;
  cfg : config;
  rng : Rng.t;
  utility : Utility.t;
  rate_for_mi : id:int -> float;
  on_result : result -> unit;
  on_mi_losses : int list -> unit;
  cum_ack : unit -> int;  (* the sender's cumulative ack *)
  (* seq -> owning MI id (-1 none), a ring over [[cum_ack + 1, highest
     sent]]; below it sequences are delivered and own nothing. This
     lookup runs once per sent packet and once per ack — the Hashtbl it
     replaces dominated ack processing. *)
  owner_win : Seq_window.t;
  mutable seq_owner : int array;
  (* MIs that may still own sequences (current + closed-unevaluated) —
     a handful at any instant, scanned linearly to map an owner id back
     to its MI. Evaluated and discarded MIs first clear their owned
     sequences, so a stale id can never surface from [seq_owner]. *)
  mutable live_mis : mi list;
  mutable trace_id : int;  (* flow id, for the trace layer *)
  mutable current : mi option;
  mutable next_id : int;
  rtt : rtts;
  mutable have_rtt : bool;
  mutable last_avg_rtt : float option;
  mutable last_class : int;  (* last utility class seen (-1 before any) *)
  mutable running : bool;
  (* In-order release of evaluated results: the fate of each MI id from
     the release cursor [expected] on, indexed by id minus [expected]. *)
  mutable fates : fate array;
  mutable expected : int;
}

let create engine cfg ~rng ~utility ~cum_ack ~rate_for_mi ~on_result
    ~on_mi_losses =
  {
    engine;
    cfg;
    rng;
    utility;
    rate_for_mi;
    on_result;
    on_mi_losses;
    cum_ack;
    owner_win = Seq_window.create 16;
    seq_owner = Array.make 16 (-1);
    live_mis = [];
    trace_id = -1;
    current = None;
    next_id = 0;
    rtt =
      { est = cfg.initial_rtt; latest = cfg.initial_rtt; min = Float.infinity };
    have_rtt = false;
    last_avg_rtt = None;
    last_class = -1;
    running = false;
    fates = Array.make 4 Unsettled;
    expected = 0;
  }

(* Ring membership and index, inline: the per-packet path makes no call. *)
let[@inline] in_ring t seq =
  (seq - t.owner_win.base) land lnot t.owner_win.mask = 0

let[@inline] slot t seq = seq land t.owner_win.mask
let[@inline] owner t seq =
  if in_ring t seq then t.seq_owner.(slot t seq) else -1

(* Only members are written: on_send reserves, and an owned sequence is
   a member. *)
let[@inline] set_owner t seq id = t.seq_owner.(slot t seq) <- id

let make_room t seq =
  let own = t.seq_owner in
  Seq_window.reserve t.owner_win seq ~floor:(t.cum_ack () + 1)
    ~clear:(fun p n -> Array.fill own p n (-1))
    ~grow:(fun cap -> t.seq_owner <- Array.make cap (-1))
    ~move:(fun src dst n -> Array.blit own src t.seq_owner dst n)

let[@inline] reserve_seq t seq = if not (in_ring t seq) then make_room t seq

let drop_live t (mi : mi) =
  t.live_mis <- List.filter (fun m -> m != mi) t.live_mis

(* Collect the sequences still owned by [mi] (its losses), releasing
   them. Owned sequences all lie in the ring, so this is one scan of it. *)
let take_owned t (mi : mi) =
  let owned = ref [] and w = t.owner_win in
  Array.iteri
    (fun i id ->
      if id = mi.mi_id then begin
        t.seq_owner.(i) <- -1;
        owned := (w.base + ((i - w.base) land w.mask)) :: !owned
      end)
    t.seq_owner;
  mi.unresolved <- 0;
  !owned

let rtt_estimate t = t.rtt.est
let current_mi_id t = match t.current with Some mi -> mi.mi_id | None -> -1
let set_trace_id t id = t.trace_id <- id

let current_rate t = match t.current with Some mi -> mi.mi_rate | None -> 0.

let mi_duration t rate =
  let send_time =
    float_of_int (t.cfg.min_pkts * Units.mss * 8) /. Float.max rate 1.
  in
  let rtt_mult =
    if t.cfg.rtt_lo >= t.cfg.rtt_hi then t.cfg.rtt_lo
    else Rng.uniform t.rng t.cfg.rtt_lo t.cfg.rtt_hi
  in
  (* The 10-packet floor exists so loss estimates have samples, but at
     very low rates it would stretch an MI to many RTTs and make startup
     doubling far slower than TCP slow start (hurting short-flow FCT,
     which §4.3.2 shows staying close to TCP's). Cap the stretch at 4
     RTTs; the confidence-bound loss estimate covers the smaller sample. *)
  let send_time = Float.min send_time (4. *. t.rtt.est) in
  Float.max send_time (rtt_mult *. t.rtt.est)

(* [on_result] may settle further MIs (a rate change discards the open
   one), so the cursor moves before each delivery. *)
let rec release_ready t =
  match t.fates.(0) with
  | Unsettled -> ()
  | fate ->
    let n = Array.length t.fates in
    Array.blit t.fates 1 t.fates 0 (n - 1);
    t.fates.(n - 1) <- Unsettled;
    t.expected <- t.expected + 1;
    (match fate with
    | Ready r ->
      t.last_avg_rtt <-
        (match r.avg_rtt with Some _ as v -> v | None -> t.last_avg_rtt);
      t.on_result r
    | Unsettled | Discarded -> ());
    release_ready t

let settle t id fate =
  let i = id - t.expected in
  if i >= Array.length t.fates then
    t.fates <- Array.append t.fates (Array.make (i + 1) Unsettled);
  t.fates.(i) <- fate;
  release_ready t

(* Evaluate a closed MI. Packets still unresolved at this point (only
   possible on the fallback path) count as lost. *)
let evaluate t (mi : mi) =
  mi.evaluated <- true;
  (match mi.fallback with
  | Some timer ->
    Engine.cancel timer;
    mi.fallback <- None
  | None -> ());
  let losses = take_owned t mi in
  drop_live t mi;
  let duration = Float.max (mi.f.close_time -. mi.start) 1e-9 in
  let loss =
    if mi.sent_pkts = 0 then 0.
    else 1. -. (float_of_int mi.acked_pkts /. float_of_int mi.sent_pkts)
  in
  let avg_rtt =
    if mi.rtt_cnt = 0 then None
    else Some (mi.f.rtt_sum /. float_of_int mi.rtt_cnt)
  in
  let throughput = float_of_int (mi.acked_bytes * 8) /. duration in
  let prev_avg_rtt = t.last_avg_rtt in
  let rtt_for_utility =
    match avg_rtt with Some v -> v | None -> t.rtt.est
  in
  let prev_rtt_for_utility =
    match prev_avg_rtt with Some v -> v | None -> rtt_for_utility
  in
  let rtt_early =
    if mi.rtt_early_cnt = 0 then rtt_for_utility
    else mi.f.rtt_early_sum /. float_of_int mi.rtt_early_cnt
  in
  let rtt_late =
    if mi.rtt_late_cnt = 0 then rtt_for_utility
    else mi.f.rtt_late_sum /. float_of_int mi.rtt_late_cnt
  in
  let metrics =
    Utility.
      {
        rate = mi.mi_rate;
        throughput;
        loss;
        samples = mi.sent_pkts;
        avg_rtt = rtt_for_utility;
        prev_avg_rtt = prev_rtt_for_utility;
        rtt_early;
        rtt_late;
        min_rtt =
          (if t.rtt.min < Float.infinity then t.rtt.min
           else rtt_for_utility);
        rtt_samples = mi.rtt_cnt;
        prev_class = t.last_class;
      }
  in
  let result =
    {
      id = mi.mi_id;
      rate = mi.mi_rate;
      start_time = mi.start;
      duration;
      sent_pkts = mi.sent_pkts;
      acked_pkts = mi.acked_pkts;
      sent_bytes = mi.sent_bytes;
      acked_bytes = mi.acked_bytes;
      loss;
      avg_rtt;
      prev_avg_rtt;
      utility = t.utility.Utility.eval metrics;
    }
  in
  if Pcc_trace.Collector.enabled () then
    Pcc_trace.Collector.emit Pcc_trace.Event.Mi_end
      ~time:(Engine.now t.engine) ~id:t.trace_id ~a:result.utility ~b:loss
      ~i:mi.mi_id;
  (* Class-switching utilities (Proteus): trace the moment the class in
     force changes, e.g. a scavenger flipping from probing to yielding. *)
  (match t.utility.Utility.classify with
  | Some classify ->
    let cls = classify metrics in
    if t.last_class >= 0 && cls <> t.last_class then
      if Pcc_trace.Collector.enabled () then
        Pcc_trace.Collector.emit Pcc_trace.Event.Utility_switch
          ~time:(Engine.now t.engine) ~id:t.trace_id
          ~a:(float_of_int cls)
          ~b:(float_of_int t.last_class)
          ~i:mi.mi_id;
    t.last_class <- cls
  | None -> ());
  if losses <> [] then t.on_mi_losses (List.sort compare losses);
  settle t result.id (Ready result)

let maybe_evaluate t (mi : mi) =
  if mi.closed && (not mi.evaluated) && mi.unresolved = 0 then evaluate t mi

let close_mi t (mi : mi) =
  (match mi.rollover with
  | Some timer ->
    Engine.cancel timer;
    mi.rollover <- None
  | None -> ());
  mi.f.close_time <- Engine.now t.engine;
  mi.closed <- true;
  if mi.unresolved = 0 then evaluate t mi
  else begin
    (* Normally every packet resolves through SACK feedback (ack or gap
       detection) about one RTT after the close. The fallback timer only
       fires when feedback dries up entirely — e.g. every remaining packet
       and its successors were lost — and then counts the rest as lost. *)
    let wait =
      (t.cfg.eval_margin *. Float.max t.rtt.est t.rtt.latest) +. 0.002
    in
    (* Before the first RTT sample the estimate is only a configuration
       guess; do not let a low guess declare unacked packets lost. *)
    let wait = if t.have_rtt then wait else Float.max wait 1.0 in
    mi.fallback <-
      Some
        (Engine.schedule_in t.engine ~after:wait (fun () ->
             mi.fallback <- None;
             if not mi.evaluated then evaluate t mi))
  end

let rec open_mi t =
  if t.running then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let rate = t.rate_for_mi ~id in
    let now = Engine.now t.engine in
    let mi =
      {
        mi_id = id;
        mi_rate = rate;
        start = now;
        f =
          {
            close_time = now;
            rtt_sum = 0.;
            planned_dur = 0.;
            rtt_early_sum = 0.;
            rtt_late_sum = 0.;
          };
        closed = false;
        evaluated = false;
        rollover = None;
        fallback = None;
        sent_pkts = 0;
        sent_bytes = 0;
        acked_pkts = 0;
        acked_bytes = 0;
        rtt_cnt = 0;
        rtt_early_cnt = 0;
        rtt_late_cnt = 0;
        unresolved = 0;
      }
    in
    t.live_mis <- mi :: t.live_mis;
    let duration = mi_duration t rate in
    mi.f.planned_dur <- duration;
    if Pcc_trace.Collector.enabled () then
      Pcc_trace.Collector.emit Pcc_trace.Event.Mi_start ~time:now
        ~id:t.trace_id ~a:rate ~b:duration ~i:id;
    mi.rollover <-
      Some
        (Engine.schedule_in t.engine ~after:duration (fun () ->
             mi.rollover <- None;
             (* Guard: a realign may already have replaced this MI. *)
             match t.current with
             | Some cur when cur == mi ->
               t.current <- None;
               close_mi t mi;
               open_mi t
             | Some _ | None -> ()));
    t.current <- Some mi
  end

let start t =
  if not t.running then begin
    t.running <- true;
    open_mi t
  end

let stop t =
  t.running <- false;
  match t.current with
  | Some mi ->
    t.current <- None;
    close_mi t mi
  | None -> ()

(* §3.1's re-alignment: the rate just changed, so the partially elapsed MI
   no longer measures a single (rate, utility) pair. Its fragment is
   discarded — packets already charged to it stop being monitored — and a
   fresh MI opens at the new rate. *)
let discard_mi t (mi : mi) =
  (match mi.rollover with
  | Some timer ->
    Engine.cancel timer;
    mi.rollover <- None
  | None -> ());
  mi.evaluated <- true;
  ignore (take_owned t mi);
  drop_live t mi;
  if Pcc_trace.Collector.enabled () then
    Pcc_trace.Collector.emit Pcc_trace.Event.Mi_discard
      ~time:(Engine.now t.engine) ~id:t.trace_id ~a:0. ~b:0. ~i:mi.mi_id;
  settle t mi.mi_id Discarded

let realign t =
  match t.current with
  | Some mi ->
    t.current <- None;
    discard_mi t mi;
    open_mi t
  | None -> if t.running then open_mi t

let on_send t ~seq ~size =
  match t.current with
  | None -> ()
  | Some mi ->
    mi.sent_pkts <- mi.sent_pkts + 1;
    mi.sent_bytes <- mi.sent_bytes + size;
    reserve_seq t seq;
    if owner t seq <> mi.mi_id then mi.unresolved <- mi.unresolved + 1;
    set_owner t seq mi.mi_id

let rec find_live id = function
  | [] -> None
  | mi :: rest -> if mi.mi_id = id then Some mi else find_live id rest

(* The live MI owning [seq], which resolves it there. An unowned
   sequence (-1) skips the search, and the search allocates no closure:
   this runs once per ack. *)
let resolve t seq =
  let id = owner t seq in
  match if id < 0 then None else find_live id t.live_mis with
  | Some mi as found ->
    set_owner t seq (-1);
    mi.unresolved <- mi.unresolved - 1;
    found
  | None -> None

let on_ack t ~seq ~rtt ~size =
  (match rtt with
  | Some sample ->
    t.rtt.latest <- sample;
    if sample < t.rtt.min then t.rtt.min <- sample;
    if t.have_rtt then t.rtt.est <- (0.9 *. t.rtt.est) +. (0.1 *. sample)
    else begin
      t.rtt.est <- sample;
      t.have_rtt <- true
    end
  | None -> ());
  match resolve t seq with
  | None -> ()
  | Some mi ->
    begin
      mi.acked_pkts <- mi.acked_pkts + 1;
      mi.acked_bytes <- mi.acked_bytes + size;
      (match rtt with
      | Some sample ->
        mi.f.rtt_sum <- mi.f.rtt_sum +. sample;
        mi.rtt_cnt <- mi.rtt_cnt + 1;
        (* Attribute the sample to the MI's first or last quarter (by the
           data packet's send time relative to the planned duration) so
           the latency utility can read the within-MI RTT trend. *)
        let now = Engine.now t.engine in
        let sent_at = now -. sample in
        if sent_at < mi.start +. (0.25 *. mi.f.planned_dur) then begin
          mi.f.rtt_early_sum <- mi.f.rtt_early_sum +. sample;
          mi.rtt_early_cnt <- mi.rtt_early_cnt + 1
        end
        else if sent_at >= mi.start +. (0.75 *. mi.f.planned_dur) then begin
          mi.f.rtt_late_sum <- mi.f.rtt_late_sum +. sample;
          mi.rtt_late_cnt <- mi.rtt_late_cnt + 1
        end
      | None -> ());
      maybe_evaluate t mi
    end

(* A sequence was declared lost by the sender's SACK-gap detection:
   resolve it in its owning MI (the loss is already implicit in
   sent - acked; resolution just lets the MI evaluate promptly). *)
let on_lost t ~seq =
  match resolve t seq with Some mi -> maybe_evaluate t mi | None -> ()
