(* The executor for independent simulation tasks: one scheduling loop
   that fans a task list across OCaml 5 domains and guarantees the sweep
   terminates with a per-task outcome even when tasks misbehave.

   Determinism contract: the executor never decides *what* a task
   computes, only *when* it runs. Results land in a slot array indexed
   by task position, seeds are derived from (master_seed, task_index)
   with {!derive_seed}, each task runs exactly once, and the first
   (lowest-index) exception wins in {!map} — so the observable outcome
   is a pure function of the task array, independent of worker count
   and scheduling order. A pure task that failed once fails the same
   way again, so nothing is ever re-run. Timeouts are wall-clock and
   therefore inherently nondeterministic; they only occur on runs that
   would otherwise hang.

   Supervision, all driven by the executor's settings:
   - in-band limits: with a deadline or event ceiling each task runs
     under a Pcc_sim.Task_guard, so the limit raises *inside* the task
     and the worker survives;
   - out-of-band watchdog: with a deadline and jobs >= 2 the calling
     domain polls per-slot heartbeats; a task stuck outside any engine
     is abandoned — its outcome is recorded as timed out, its domain is
     leaked until process exit, and a replacement worker keeps the
     sweep's width;
   - forensics: every failure can write a bundle (exception, backtrace,
     seed, repro command, and the failing domain's trace ring when one
     is recording) for offline reproduction. *)

type 'a task = {
  label : string;
  seed : int option;
  repro : string option;
  run : unit -> 'a;
}

type failure = { exn_text : string; backtrace : string }
type status = Completed | Timed_out | Crashed of failure

type outcome = {
  index : int;
  label : string;
  seed : int option;
  repro : string option;
  status : status;
  forensics : string option;  (* bundle directory, when one was written *)
}

type report = {
  total : int;
  outcomes : outcome array;
  ok : int;
  timed_out : int;
  crashed : int;
}

type t = {
  jobs : int;
  deadline : float option;
  max_events : int option;
  forensics_dir : string option;
  forensic_trace : bool;
  repro_context : string option;
}

(* Fixed supervision constants: how long past its deadline a silent
   worker may stay before the watchdog abandons it, and the watchdog's
   polling period. *)
let grace = 1.0
let poll = 0.05

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs ?deadline ?max_events ?forensics_dir
    ?(forensic_trace = false) ?repro_context () =
  let jobs = match jobs with None -> default_jobs () | Some n -> n in
  let bad fmt = Printf.ksprintf invalid_arg ("Runner.create: " ^^ fmt) in
  if jobs < 1 then bad "jobs must be >= 1, got %d" jobs;
  (match deadline with
  | Some d when d <= 0. -> bad "deadline must be positive, got %g" d
  | _ -> ());
  (match max_events with
  | Some n when n <= 0 -> bad "max_events must be positive, got %d" n
  | _ -> ());
  { jobs; deadline; max_events; forensics_dir; forensic_trace; repro_context }

let jobs t = t.jobs
let with_pool ?jobs f = f (create ?jobs ())

(* ---- seed derivation ---------------------------------------------- *)

(* splitmix64's finalizer over a combination of master and index. Pure,
   so a task's seed depends only on its position in the batch, never on
   which worker runs it or in what order tasks complete. *)
let derive_seed ~master ~index =
  let open Int64 in
  let z =
    add (of_int master)
      (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

let clock = Unix.gettimeofday

let status_name = function
  | Completed -> "ok"
  | Timed_out -> "timed_out"
  | Crashed _ -> "crashed"

let is_failure = function Completed -> false | Timed_out | Crashed _ -> true

(* ---- output directories and forensics ------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* Another domain or process may create it first. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": Not a directory"))

let write_trace ~dir c =
  mkdir_p dir;
  let p name = Filename.concat dir name in
  Pcc_trace.Export.write_chrome_json ~path:(p "trace.json") c;
  Pcc_trace.Export.write_decision_log ~path:(p "decisions.log") c;
  Pcc_metrics.Series_io.write_multi_series ~path:(p "trace.csv")
    (Pcc_trace.Export.csv_series c)

let make_dirs dirs = try Ok (List.iter mkdir_p dirs) with Sys_error m -> Error m

let finish_trace ~dir c =
  let module C = Pcc_trace.Collector in
  let written =
    try
      write_trace ~dir c;
      Ok
        (Printf.sprintf
           "trace: %d events held (%d emitted, %d overwritten) -> %s"
           (C.length c) (C.emitted c) (C.dropped c) dir)
    with Sys_error m -> Error m
  in
  C.uninstall ();
  written

(* Trace records live in domain-local state: a traced sweep stays in
   the calling domain. *)
let traced dir ~jobs f =
  match dir with
  | None -> (f ~jobs, None)
  | Some dir ->
    if jobs > 1 then Printf.eprintf "tracing forces --jobs 1 (was %d)\n%!" jobs;
    let c = Pcc_trace.Collector.create () in
    Pcc_trace.Collector.install c;
    let r = f ~jobs:1 in
    (r, Some (finish_trace ~dir c))

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

(* Writes <root>/<NNN-label>/{report.txt,trace.*}. Returns the bundle
   directory, or None when no root is configured or the write failed
   (forensics must never take the sweep down with them). *)
let write_bundle t ~index ~(task : _ task) ~status ~failure ~collector =
  match t.forensics_dir with
  | None -> None
  | Some root -> (
    try
      let id =
        Printf.sprintf "%03d-%s" index
          (sanitize (if task.label = "" then "task" else task.label))
      in
      let dir = Filename.concat root id in
      mkdir_p dir;
      let oc = open_out (Filename.concat dir "report.txt") in
      let p fmt = Printf.fprintf oc fmt in
      p "task: %s\n" (if task.label = "" then "(unlabelled)" else task.label);
      p "index: %d\n" index;
      p "status: %s\n" (status_name status);
      (match task.seed with
      | Some s -> p "seed: %d\n" s
      | None -> p "seed: (not recorded)\n");
      (match (task.repro, t.repro_context) with
      | Some r, _ -> p "repro: %s\n" r
      | None, Some ctx -> p "repro: %s   # task %s\n" ctx task.label
      | None, None -> p "repro: (not recorded)\n");
      p "exception: %s\n" failure.exn_text;
      String.split_on_char '\n' failure.backtrace
      |> List.iter (fun l -> if l <> "" then p "    %s\n" l);
      close_out oc;
      Option.iter (write_trace ~dir) collector;
      Some dir
    with Sys_error _ -> None)

(* ---- the process-wide failure tally -------------------------------- *)

(* CLI front-ends render experiments through Exp_registry and only get a
   string back; {!run} also records failing outcomes here so `pcc_sim
   exp` and the bench can report them without threading reports through
   every render signature. *)
let tally_m = Mutex.create ()
let tally : outcome list ref = ref []  (* newest first *)

let record_failures (report : report) =
  Mutex.lock tally_m;
  Array.iter
    (fun o -> if is_failure o.status then tally := o :: !tally)
    report.outcomes;
  Mutex.unlock tally_m

let failures () =
  Mutex.lock tally_m;
  let l = List.rev !tally in
  Mutex.unlock tally_m;
  l

let reset_failures () =
  Mutex.lock tally_m;
  tally := [];
  Mutex.unlock tally_m

(* ---- one task ------------------------------------------------------ *)

(* Runs one task, under a Task_guard when a limit is set and, with
   [forensic_trace], into a private trace ring so a failure has its own
   recent history to dump. Returns the result and, on failure, the
   collector that was recording in this domain — the private ring or
   whatever the caller had installed (e.g. a traced jobs=1 run). *)
let run_task t (task : _ task) ~heartbeat =
  (* Forensics bundles are only as good as their backtraces; recording is
     domain-local in OCaml 5, so arm it here in the running domain. *)
  if t.forensics_dir <> None && not (Printexc.backtrace_status ()) then
    Printexc.record_backtrace true;
  let prev =
    if t.forensic_trace then Pcc_trace.Collector.current () else None
  in
  if t.forensic_trace then
    Pcc_trace.Collector.install
      (Pcc_trace.Collector.create ~capacity:16384 ());
  let guarded = t.deadline <> None || t.max_events <> None in
  if guarded then
    Pcc_sim.Task_guard.install ?deadline:t.deadline ?max_events:t.max_events
      ~heartbeat ~clock ();
  let result =
    try Ok (task.run ())
    with exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  if guarded then Pcc_sim.Task_guard.uninstall ();
  let failing_collector =
    match result with
    | Ok _ -> None
    | Error _ -> Pcc_trace.Collector.current ()
  in
  if t.forensic_trace then begin
    Pcc_trace.Collector.uninstall ();
    match prev with
    | Some c -> Pcc_trace.Collector.install c
    | None -> ()
  end;
  (result, failing_collector)

let is_timeout_exn exn =
  Pcc_sim.Task_guard.is_guard_exn exn
  ||
  match exn with
  | Pcc_sim.Engine.Event_error { exn; _ } ->
    Pcc_sim.Task_guard.is_guard_exn exn
  | _ -> false

(* ---- scheduler state ----------------------------------------------- *)

type slot = {
  mutable s_epoch : int;  (* bumped when the watchdog abandons the slot *)
  mutable s_task : int;  (* running task index, -1 when idle *)
  mutable s_started : float;
  s_beat : float Atomic.t;  (* stamped by the task's guard *)
}

(* A task's state. A failure keeps its exception for {!map} to
   re-raise. *)
type 'a cell =
  | Pending
  | Finished of 'a
  | Failed of { exn : exn; bt : Printexc.raw_backtrace; outcome : outcome }

type 'a sched = {
  cfg : t;
  tasks : 'a task array;
  n : int;
  m : Mutex.t;
  cv : Condition.t;
  mutable fresh : int;  (* next task to start *)
  mutable completed : int;  (* tasks no longer [Pending] *)
  mutable live_workers : int;
  cells : 'a cell array;
  slots : slot array;
}

let outcome_of s i status forensics =
  let task = s.tasks.(i) in
  {
    index = i;
    label = task.label;
    seed = task.seed;
    repro = task.repro;
    status;
    forensics;
  }

(* Caller holds the lock. *)
let settle s i cell =
  s.cells.(i) <- cell;
  s.completed <- s.completed + 1;
  Condition.broadcast s.cv

(* Caller holds the lock. Records task [i]'s failure and writes its
   forensics bundle. Bundle IO happens under the lock: it only runs on
   failure paths, where contention is the least concern. *)
let fail s i ~timed_out ~failure (exn, bt) collector =
  let status = if timed_out then Timed_out else Crashed failure in
  let forensics =
    write_bundle s.cfg ~index:i ~task:s.tasks.(i) ~status ~failure ~collector
  in
  settle s i (Failed { exn; bt; outcome = outcome_of s i status forensics })

(* A failure raised by the executor itself: no backtrace to show. *)
let fail_with s i ~timed_out text =
  fail s i ~timed_out
    ~failure:{ exn_text = text; backtrace = "" }
    (Failure text, Printexc.get_callstack 0)
    None

(* ---- worker -------------------------------------------------------- *)

type work = Run of int | Wait | Done

(* Caller holds the lock. *)
let take_work s =
  if s.completed >= s.n then Done
  else if s.fresh < s.n then begin
    let i = s.fresh in
    s.fresh <- s.fresh + 1;
    Run i
  end
  else Wait

(* The worker bound to [slot] while [slot.s_epoch = epoch]. Holds the
   lock except while running a task. *)
let worker s slot epoch =
  Mutex.lock s.m;
  let rec loop () =
    match take_work s with
    | Done -> Mutex.unlock s.m
    | Wait ->
      Condition.wait s.cv s.m;
      loop ()
    | Run i ->
      slot.s_task <- i;
      slot.s_started <- clock ();
      Atomic.set slot.s_beat slot.s_started;
      Mutex.unlock s.m;
      let result, collector =
        run_task s.cfg s.tasks.(i) ~heartbeat:slot.s_beat
      in
      Mutex.lock s.m;
      if slot.s_epoch <> epoch then
        (* The watchdog abandoned us mid-task: our outcome was already
           recorded as timed out and a replacement owns the slot. This
           domain must touch nothing and die. *)
        Mutex.unlock s.m
      else begin
        slot.s_task <- -1;
        (match result with
        | Ok v -> settle s i (Finished v)
        | Error ((exn, bt) as e) ->
          let failure =
            {
              exn_text = Printexc.to_string exn;
              backtrace = Printexc.raw_backtrace_to_string bt;
            }
          in
          fail s i ~timed_out:(is_timeout_exn exn) ~failure e collector);
        loop ()
      end
  in
  loop ()

(* ---- watchdog / coordinator ---------------------------------------- *)

let watchdog_text stale =
  Printf.sprintf
    "watchdog: no heartbeat for %.1fs (task stuck outside the engine); \
     worker domain abandoned"
    stale

(* Caller holds the lock. Abandons the task in [slot]: final timed-out
   outcome, epoch bump so the hung worker's eventual return is
   discarded, and a replacement worker so the sweep keeps its width. *)
let abandon s w slot =
  let i = slot.s_task in
  let stale = clock () -. Float.max slot.s_started (Atomic.get slot.s_beat) in
  slot.s_epoch <- slot.s_epoch + 1;
  slot.s_task <- -1;
  fail_with s i ~timed_out:true (watchdog_text stale);
  let epoch = slot.s_epoch in
  match Domain.spawn (fun () -> worker s slot epoch) with
  | d -> Some (w, epoch, d)
  | exception _ ->
    (* Could not replace the worker (domain limit): the sweep narrows. *)
    s.live_workers <- s.live_workers - 1;
    None

(* Caller holds the lock. Every worker hung and could not be replaced:
   fail the rest of the sweep rather than wait forever. *)
let fail_unstarted s =
  Array.iteri
    (fun i cell ->
      match cell with
      | Pending when not (Array.exists (fun sl -> sl.s_task = i) s.slots) ->
        fail_with s i ~timed_out:false "runner: no worker domains left"
      | _ -> ())
    s.cells

(* The calling domain's part in a pooled sweep: wait for completions
   and, with a deadline, poll the per-slot heartbeats. *)
let coordinate s handles =
  let hard_deadline = Option.map (fun d -> d +. grace) s.cfg.deadline in
  while s.completed < s.n do
    match hard_deadline with
    | None -> Condition.wait s.cv s.m
    | Some hd ->
      Mutex.unlock s.m;
      Unix.sleepf poll;
      Mutex.lock s.m;
      let now = clock () in
      Array.iteri
        (fun w slot ->
          if
            slot.s_task >= 0
            && now -. Float.max slot.s_started (Atomic.get slot.s_beat) > hd
          then
            Option.iter (fun h -> handles := h :: !handles) (abandon s w slot))
        s.slots;
      if s.live_workers = 0 then fail_unstarted s
  done

(* Runs every task to a final outcome. With one worker the caller runs
   the loop inline: in-band guard limits apply, the watchdog does not
   (there is no domain to abandon the caller from). With more, the
   workers are fresh domains and the caller coordinates. *)
let execute cfg tasks =
  let n = Array.length tasks in
  let width = if cfg.jobs = 1 then 1 else min cfg.jobs n in
  let s =
    {
      cfg;
      tasks;
      n;
      m = Mutex.create ();
      cv = Condition.create ();
      fresh = 0;
      completed = 0;
      live_workers = width;
      cells = Array.make n Pending;
      slots =
        Array.init width (fun _ ->
            {
              s_epoch = 0;
              s_task = -1;
              s_started = 0.;
              s_beat = Atomic.make 0.;
            });
    }
  in
  if n = 0 then s
  else if cfg.jobs = 1 then begin
    worker s s.slots.(0) 0;
    s
  end
  else begin
    let handles =
      ref
        (Array.to_list
           (Array.mapi
              (fun w slot -> (w, 0, Domain.spawn (fun () -> worker s slot 0)))
              s.slots))
    in
    Mutex.lock s.m;
    coordinate s handles;
    Mutex.unlock s.m;
    (* Join the workers that still own their slot; abandoned domains are
       leaked by design (they are wedged) and die with the process. *)
    List.iter
      (fun (w, epoch, d) -> if s.slots.(w).s_epoch = epoch then Domain.join d)
      !handles;
    s
  end

(* ---- entry points -------------------------------------------------- *)

let report_of s =
  let outcomes =
    Array.mapi
      (fun i cell ->
        match cell with
        | Finished _ -> outcome_of s i Completed None
        | Failed { outcome; _ } -> outcome
        | Pending ->
          (* Unreachable: every task gets a final outcome before the
             loop returns. *)
          outcome_of s i
            (Crashed { exn_text = "missing outcome"; backtrace = "" })
            None)
      s.cells
  in
  let count f =
    Array.fold_left (fun a o -> if f o.status then a + 1 else a) 0 outcomes
  in
  {
    total = s.n;
    outcomes;
    ok = count (( = ) Completed);
    timed_out = count (( = ) Timed_out);
    crashed = count (function Crashed _ -> true | _ -> false);
  }

let run t tasks =
  let s = execute t (Array.of_list tasks) in
  let report = report_of s in
  record_failures report;
  ( Array.to_list
      (Array.map (function Finished v -> Some v | _ -> None) s.cells),
    report )

let map t f inputs =
  let task x =
    { label = ""; seed = None; repro = None; run = (fun () -> f x) }
  in
  let s = execute t (Array.map task inputs) in
  (* The lowest-indexed failure wins, whatever order the failures
     happened in. *)
  Array.map
    (function
      | Finished v -> v
      | Failed { exn; bt; _ } -> Printexc.raise_with_backtrace exn bt
      | Pending -> failwith "Runner.map: missing outcome")
    s.cells

let map_list t f l = Array.to_list (map t f (Array.of_list l))

let failed (r : report) = r.timed_out + r.crashed > 0

let describe o =
  Printf.sprintf "%s (%s)"
    (if o.label = "" then string_of_int o.index else o.label)
    (status_name o.status)

let failure_summary () =
  match failures () with
  | [] -> None
  | l ->
    Some
      (Printf.sprintf "%d task(s) failed: %s" (List.length l)
         (String.concat ", " (List.map describe l)))

let summary_line (r : report) =
  let failing =
    Array.to_list r.outcomes
    |> List.filter (fun o -> is_failure o.status)
    |> List.map describe
  in
  let base = Printf.sprintf "%d/%d task(s) ok" r.ok r.total in
  if failing = [] then base
  else
    Printf.sprintf "%s; %d timed out, %d crashed: %s" base r.timed_out
      r.crashed
      (String.concat ", " failing)
