type error_policy = Raise | Collect

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

type t = {
  mutable clock : float;
  q : (unit -> unit) Timing_wheel.t;
  mutable on_error : error_policy;
  mutable errors : (float * exn) list;  (* newest first *)
  mutable stall_budget : int;
  mutable stall_count : int;
  mutable executed : int;
}

type timer = Handle.t

let default_stall_budget = 1_000_000

let create ?(now = 0.) ?(stall_budget = default_stall_budget)
    ?(on_error = Raise) () =
  if stall_budget <= 0 then
    invalid_arg "Engine.create: stall_budget must be positive";
  {
    clock = now;
    q = Timing_wheel.create ~dummy:ignore ();
    on_error;
    errors = [];
    stall_budget;
    stall_count = 0;
    executed = 0;
  }

let now t = t.clock

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.clock);
  Timing_wheel.push t.q ~time:at f

let schedule_in t ~after f =
  let after = if after < 0. then 0. else after in
  Timing_wheel.push t.q ~time:(t.clock +. after) f

let post t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %.9f is before now %.9f" at t.clock);
  Timing_wheel.push_unit t.q ~time:at f

let post_in t ~after f =
  let after = if after < 0. then 0. else after in
  Timing_wheel.push_unit t.q ~time:(t.clock +. after) f

let cancel = Handle.cancel

let pending t = Timing_wheel.size t.q

let set_stall_budget t n =
  if n <= 0 then invalid_arg "Engine.set_stall_budget: must be positive";
  t.stall_budget <- n

let set_on_error t p = t.on_error <- p
let errors t = List.rev t.errors
let clear_errors t = t.errors <- []
let executed t = t.executed

(* A global (cross-engine, cross-domain) tally of executed events, for
   benchmark reporting. Engines batch their contribution once per [run]
   call rather than per event, so the atomic is off the hot path. *)
let global_executed = Atomic.make 0

let total_executed () = Atomic.get global_executed

let count_external n =
  if n > 0 then ignore (Atomic.fetch_and_add global_executed n)

(* Dispatch one already-popped event: advance the clock, police the
   stall budget, run the callback under the error policy. *)
let execute t time f =
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
  try f () with
  | Livelock _ as watchdog -> raise watchdog
  | exn -> (
    match t.on_error with
    | Raise -> raise (Event_error { time; exn })
    | Collect -> t.errors <- (time, exn) :: t.errors)

let step t =
  match Timing_wheel.pop t.q with
  | None -> false
  | Some (time, f) ->
    let before = t.executed in
    Fun.protect
      ~finally:(fun () ->
        ignore (Atomic.fetch_and_add global_executed (t.executed - before)))
      (fun () -> execute t time f);
    true

let run ?until ?max_events t =
  let before = t.executed in
  Fun.protect
    ~finally:(fun () ->
      ignore (Atomic.fetch_and_add global_executed (t.executed - before)))
  @@ fun () ->
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
        (match Timing_wheel.pop t.q with
        | Some (time, f) -> execute t time f
        | None -> assert false)
      | Some _ | None ->
        (match until with
        | Some limit when limit > t.clock -> t.clock <- limit
        | _ -> ());
        continue := false
    done
  | None -> (
    (* Fast paths: continuation-style pops — one queue descent per event
       (no peek-then-pop) and no option/tuple allocation per event. *)
    let k time f = execute t time f in
    match until with
    | None -> while Timing_wheel.pop_cb t.q k do () done
    | Some limit ->
      while Timing_wheel.pop_le_cb t.q ~max_time:limit k do () done;
      if limit > t.clock then t.clock <- limit)

let run_for ?max_events t d = run ?max_events ~until:(t.clock +. d) t
