(* Cooperative per-domain execution guard.

   The executor (Pcc_experiments.Runner) installs a guard in a
   worker domain before running a task; the engine's dispatch loop calls
   {!on_event} once per executed event. The guard turns two failure
   modes into ordinary exceptions raised *inside* the task:

   - a wall-clock deadline, checked every [check_period] events so the
     clock syscall stays off the per-event path;
   - an event-count ceiling across every engine the task drives (unlike
     [Engine.run ~max_events], which bounds one call on one engine).

   It also publishes a heartbeat timestamp into an atomic shared with
   the executor's watchdog, so a task stuck *outside* any engine
   (never reaching [on_event]) is detectable out-of-band.

   Mirrors the trace collector's install pattern: [active] is one
   atomic load and a branch until the first guard anywhere is
   installed, which is the whole cost an unguarded run pays. *)

exception Deadline_exceeded of { elapsed : float; limit : float }
exception Event_budget_exceeded of { events : int; limit : int }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed; limit } ->
      Some
        (Printf.sprintf
           "Task_guard.Deadline_exceeded: task ran %.1fs against a %.1fs \
            wall-clock deadline"
           elapsed limit)
    | Event_budget_exceeded { events; limit } ->
      Some
        (Printf.sprintf
           "Task_guard.Event_budget_exceeded: task executed %d events \
            against a ceiling of %d"
           events limit)
    | _ -> None)

type t = {
  deadline_at : float;  (* absolute wall time; infinity when unbounded *)
  deadline : float;  (* the configured limit, for the error message *)
  started : float;
  max_events : int;  (* max_int when unbounded *)
  clock : unit -> float;
  heartbeat : float Atomic.t;
  mutable events : int;
}

(* Wall-clock reads happen every [check_period] events; at the >=10^6
   events/s the engine sustains that is a deadline granularity of well
   under a millisecond. *)
let check_period = 512

let hint = Atomic.make false
let key = Domain.DLS.new_key (fun () : t option ref -> ref None)
let slot () = Domain.DLS.get key

let install ?deadline ?max_events ?heartbeat ~clock () =
  (match deadline with
  | Some d when d <= 0. ->
    invalid_arg "Task_guard.install: deadline must be positive"
  | _ -> ());
  (match max_events with
  | Some n when n <= 0 ->
    invalid_arg "Task_guard.install: max_events must be positive"
  | _ -> ());
  let now = clock () in
  let g =
    {
      deadline_at =
        (match deadline with Some d -> now +. d | None -> infinity);
      deadline = (match deadline with Some d -> d | None -> infinity);
      started = now;
      max_events = (match max_events with Some n -> n | None -> max_int);
      clock;
      heartbeat =
        (match heartbeat with Some h -> h | None -> Atomic.make now);
      events = 0;
    }
  in
  Atomic.set g.heartbeat now;
  slot () := Some g;
  Atomic.set hint true

let uninstall () = slot () := None
let active () = Atomic.get hint && !(slot ()) <> None

let check g =
  let now = g.clock () in
  Atomic.set g.heartbeat now;
  if now > g.deadline_at then
    raise (Deadline_exceeded { elapsed = now -. g.started; limit = g.deadline })

let on_event () =
  if Atomic.get hint then
    match !(slot ()) with
    | None -> ()
    | Some g ->
      g.events <- g.events + 1;
      if g.events > g.max_events then
        raise
          (Event_budget_exceeded { events = g.events; limit = g.max_events });
      if g.events mod check_period = 0 then check g

let events () = match !(slot ()) with Some g -> g.events | None -> 0

let is_guard_exn = function
  | Deadline_exceeded _ | Event_budget_exceeded _ -> true
  | _ -> false
