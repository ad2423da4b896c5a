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

type scheduler = Heap | Wheel

(* One engine runs on exactly one queue backend. Both issue the shared
   {!Handle} type and dispatch in the identical exact (time, seq)
   order, so the choice is invisible to seeded simulations (asserted by
   the differential tests and the fuzz oracle). *)
type queue =
  | Q_heap of (unit -> unit) Event_heap.t
  | Q_wheel of (unit -> unit) Timing_wheel.t

type t = {
  mutable clock : float;
  q : queue;
  mutable on_error : error_policy;
  mutable errors : (float * exn) list;  (* newest first *)
  mutable stall_budget : int;
  mutable stall_count : int;
  mutable executed : int;
}

type timer = Handle.t

let scheduler_of_string = function
  | "heap" -> Some Heap
  | "wheel" -> Some Wheel
  | _ -> None

let scheduler_name = function Heap -> "heap" | Wheel -> "wheel"

(* Process-wide default backend: [Engine.create ()] call sites are
   scattered through experiments and scenarios, so selection flows
   through this rather than a threaded parameter. Resolution order:
   explicit [set_default_scheduler] (CLI) beats PCC_SCHEDULER in the
   environment beats the built-in default. *)
let builtin_default = Wheel

let env_default () =
  match Sys.getenv_opt "PCC_SCHEDULER" with
  | None -> builtin_default
  | Some s -> (
    match scheduler_of_string (String.lowercase_ascii s) with
    | Some sch -> sch
    | None ->
      invalid_arg
        (Printf.sprintf
           "PCC_SCHEDULER=%s: expected \"heap\" or \"wheel\"" s))

(* 0 = unset, 1 = Heap, 2 = Wheel; an Atomic because worker domains
   read it while the main domain may be applying a CLI override. *)
let default_cell = Atomic.make 0

let set_default_scheduler sch =
  Atomic.set default_cell (match sch with Heap -> 1 | Wheel -> 2)

let default_scheduler () =
  match Atomic.get default_cell with
  | 1 -> Heap
  | 2 -> Wheel
  | _ -> env_default ()

let default_stall_budget = 1_000_000

let create ?(now = 0.) ?(stall_budget = default_stall_budget)
    ?(on_error = Raise) ?scheduler () =
  if stall_budget <= 0 then
    invalid_arg "Engine.create: stall_budget must be positive";
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ()
  in
  {
    clock = now;
    q =
      (match scheduler with
      | Heap -> Q_heap (Event_heap.create ())
      | Wheel -> Q_wheel (Timing_wheel.create ~dummy:ignore ()));
    on_error;
    errors = [];
    stall_budget;
    stall_count = 0;
    executed = 0;
  }

let scheduler t = match t.q with Q_heap _ -> Heap | Q_wheel _ -> Wheel

let now t = t.clock

let q_push t ~time f =
  match t.q with
  | Q_heap q -> Event_heap.push q ~time f
  | Q_wheel q -> Timing_wheel.push q ~time f

let q_pop t =
  match t.q with
  | Q_heap q -> Event_heap.pop q
  | Q_wheel q -> Timing_wheel.pop q

let q_pop_cb t k =
  match t.q with
  | Q_heap q -> Event_heap.pop_cb q k
  | Q_wheel q -> Timing_wheel.pop_cb q k

let q_pop_le_cb t ~max_time k =
  match t.q with
  | Q_heap q -> Event_heap.pop_le_cb q ~max_time k
  | Q_wheel q -> Timing_wheel.pop_le_cb q ~max_time k

let q_peek_time t =
  match t.q with
  | Q_heap q -> Event_heap.peek_time q
  | Q_wheel q -> Timing_wheel.peek_time q

let q_size t =
  match t.q with
  | Q_heap q -> Event_heap.size q
  | Q_wheel q -> Timing_wheel.size q

let schedule t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.clock);
  q_push t ~time:at f

let schedule_in t ~after f =
  let after = if after < 0. then 0. else after in
  q_push t ~time:(t.clock +. after) f

let q_push_unit t ~time f =
  match t.q with
  | Q_heap q -> Event_heap.push_unit q ~time f
  | Q_wheel q -> Timing_wheel.push_unit q ~time f

let post t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %.9f is before now %.9f" at t.clock);
  q_push_unit t ~time:at f

let post_in t ~after f =
  let after = if after < 0. then 0. else after in
  q_push_unit t ~time:(t.clock +. after) f

let cancel = Handle.cancel

let pending t = q_size t

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
    (* The heap never yields times before the clock, so this event fires
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
      ~a:(float_of_int (q_size t))
      ~b:0. ~i:t.executed;
  try f () with
  | Livelock _ as watchdog -> raise watchdog
  | exn -> (
    match t.on_error with
    | Raise -> raise (Event_error { time; exn })
    | Collect -> t.errors <- (time, exn) :: t.errors)

let step t =
  match q_pop t with
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
      match q_peek_time t with
      | Some time when (match until with None -> true | Some l -> time <= l)
        ->
        spend ();
        (match q_pop t with
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
    | None -> while q_pop_cb t k do () done
    | Some limit ->
      while q_pop_le_cb t ~max_time:limit k do () done;
      if limit > t.clock then t.clock <- limit)

let run_for ?max_events t d = run ?max_events ~until:(t.clock +. d) t
