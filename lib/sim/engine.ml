type livelock_kind = Stall | Budget

exception Event_error of { time : float; exn : exn }

exception Livelock of { time : float; events : int; kind : livelock_kind }

let () =
  Printexc.register_printer (function
    | Event_error { time; exn } ->
      Some
        (Printf.sprintf "Engine.Event_error: event scheduled at t=%.9f raised %s"
           time (Printexc.to_string exn))
    | Livelock { time; events; kind = Stall } ->
      Some
        (Printf.sprintf
           "Engine.Livelock: %d events executed at simulated time t=%.9f \
            without the clock advancing (zero-delay event loop?)"
           events time)
    | Livelock { time; events; kind = Budget } ->
      Some
        (Printf.sprintf
           "Engine.Livelock: event budget exhausted after %d events with the \
            clock at t=%.9f"
           events time)
    | _ -> None)

(* Type erasure, confined to this module. One engine queues actions of
   many argument types, but the wheel's columns each hold one type, so
   every event is stored as an [Obj.t -> unit] action beside its
   argument as an [Obj.t]: [erase] and [Obj.repr] on store, the only
   coercions. Dispatch applies the stored action to the stored
   argument, which is the [f x] that {!post_apply_in} type-checked. A
   [unit -> unit] callback is stored with [()] as its argument. The
   argument column's dummy is [()], an immediate, so the wheel builds
   it as an ordinary array that can hold a boxed float. *)
type action = Obj.t -> unit

let erase : ('a -> unit) -> action = Obj.magic
let no_arg = Obj.repr ()

type t = {
  mutable clock : float;
  q : (action, Obj.t) Timing_wheel.t;
  stall_budget : int;
  mutable stall_count : int;
  mutable executed : int;
}

type timer = Handle.t

let default_stall_budget = 1_000_000

let create ?(stall_budget = default_stall_budget) () =
  if stall_budget <= 0 then
    invalid_arg "Engine.create: stall_budget must be positive";
  {
    clock = 0.;
    q = Timing_wheel.create ~dummy:ignore ~dummy_arg:no_arg ();
    stall_budget;
    stall_count = 0;
    executed = 0;
  }

let now t = t.clock

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.clock);
  Timing_wheel.push t.q ~time:at (erase f) no_arg

let schedule_in t ~after f =
  let after = if after < 0. then 0. else after in
  Timing_wheel.push t.q ~time:(t.clock +. after) (erase f) no_arg

let post t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %.9f is before now %.9f" at t.clock);
  Timing_wheel.push_unit t.q ~time:at (erase f) no_arg

let post_in t ~after f =
  let after = if after < 0. then 0. else after in
  Timing_wheel.push_unit t.q ~time:(t.clock +. after) (erase f) no_arg

let post_apply_in t ~after f x =
  let after = if after < 0. then 0. else after in
  Timing_wheel.push_unit t.q ~time:(t.clock +. after) (erase f) (Obj.repr x)

let timer t = Timing_wheel.idle t.q

let arm_in t timer ~after f =
  let after = if after < 0. then 0. else after in
  Timing_wheel.arm t.q timer ~time:(t.clock +. after) (erase f) no_arg

let is_pending (timer : timer) = timer.Handle.state = 0

let cancel = Handle.cancel

let pending t = Timing_wheel.size t.q

let executed t = t.executed

(* A global (cross-engine, cross-domain) tally of executed events, for
   benchmark reporting. Engines batch their contribution once per [run]
   call rather than per event, so the atomic is off the hot path. *)
let global_executed = Atomic.make 0

let total_executed () = Atomic.get global_executed

let count_external n =
  if n > 0 then ignore (Atomic.fetch_and_add global_executed n)

(* Dispatch one already-popped event: advance the clock, police the
   stall budget, apply the action to its argument, wrapping whatever
   it raises (the watchdog aside) in [Event_error]. *)
let execute t time (f : action) x =
  if time > t.clock then begin
    t.clock <- time;
    t.stall_count <- 0
  end
  else begin
    (* The wheel never yields times before the clock, so this event fires
       at the current instant: charge it against the stall budget. *)
    t.stall_count <- t.stall_count + 1;
    if t.stall_count > t.stall_budget then
      raise (Livelock { time; events = t.stall_count; kind = Stall })
  end;
  t.executed <- t.executed + 1;
  (* Supervision guard (deadline / event ceiling / heartbeat). Placed
     before the callback so a limit raises out of [run] naked rather
     than wrapped in [Event_error]; like the trace test below, inactive
     guards cost one atomic load and a branch. *)
  if Task_guard.active () then Task_guard.on_event ();
  (* Dispatch span for the trace layer. The [enabled] test is the only
     cost an untraced run pays on this hottest of paths, and the record
     itself is mask-gated (engine category, off by default). *)
  if Pcc_trace.Collector.enabled () then
    Pcc_trace.Collector.emit Pcc_trace.Event.Dispatch ~time ~id:0
      ~a:(float_of_int (Timing_wheel.size t.q))
      ~b:0. ~i:t.executed;
  try f x with
  | Livelock _ as watchdog -> raise watchdog
  | exn -> raise (Event_error { time; exn })

let step t =
  let before = t.executed in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add global_executed (t.executed - before)))
    (fun () -> Timing_wheel.pop_cb t.q (execute t))

let run ?until ?max_events t =
  let before = t.executed in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add global_executed (t.executed - before)))
  @@ fun () ->
  (* Continuation-style pops: one queue descent per event and no
     option/tuple allocation per event. *)
  let k time f x = execute t time f x in
  match max_events with
  | Some budget ->
    (* Slow path: the budget check must fire only when another runnable
       event exists, so peek before popping. *)
    let ran = ref 0 in
    let spend () =
      if !ran >= budget then
        raise (Livelock { time = t.clock; events = !ran; kind = Budget });
      incr ran
    in
    let continue = ref true in
    while !continue do
      match Timing_wheel.peek_time t.q with
      | Some time when (match until with None -> true | Some l -> time <= l)
        ->
        spend ();
        ignore (Timing_wheel.pop_cb t.q k)
      | Some _ | None ->
        (match until with
        | Some limit when limit > t.clock -> t.clock <- limit
        | _ -> ());
        continue := false
    done
  | None -> (
    (* Fast paths: no peek-then-pop. *)
    match until with
    | None -> while Timing_wheel.pop_cb t.q k do () done
    | Some limit ->
      while Timing_wheel.pop_le_cb t.q ~max_time:limit k do () done;
      if limit > t.clock then t.clock <- limit)

