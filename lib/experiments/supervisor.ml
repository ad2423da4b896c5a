(* Supervised execution of experiment task sweeps.

   The Runner pool (runner.ml) is the fast path: it assumes every task
   returns. This layer assumes tasks misbehave — hang, crash, livelock —
   and guarantees the sweep still terminates with per-task outcomes:

   - in-band limits: each attempt runs under a Pcc_sim.Task_guard, so a
     wall-clock deadline or event ceiling raises *inside* the task and
     the worker survives;
   - out-of-band watchdog: the coordinating domain polls per-slot
     heartbeats; a task that never reaches the engine's dispatch loop
     (stuck in non-engine code) is abandoned — its outcome is recorded
     as timed out, its domain is leaked until process exit, and a
     replacement worker is spawned so the sweep keeps its parallelism;
   - retries: failures the policy classifies transient are re-queued
     with bounded exponential backoff; tasks that exhaust their retries
     are quarantined;
   - forensics: every final failure can write a bundle (exception,
     backtrace, seed, repro command, and the failing domain's trace
     ring when one is recording) for offline reproduction.

   Determinism: results land in slots indexed by task position, and
   retries re-run the same pure thunk, so a sweep whose tasks all
   succeed is byte-identical to Runner execution at any job count.
   Timeouts are wall-clock and therefore inherently nondeterministic —
   they only occur on runs that would otherwise hang or be killed. *)

type 'a task = {
  label : string;
  seed : int option;
  repro : string option;
  run : unit -> 'a;
}

type failure = { attempt : int; exn_text : string; backtrace : string }

type status =
  | Completed of { retries : int }
  | Timed_out of { attempts : int }
  | Crashed of failure
  | Quarantined of { attempts : int; last : failure }

type outcome = {
  index : int;
  label : string;
  seed : int option;
  repro : string option;
  status : status;
  failures : failure list;  (* newest first *)
  forensics : string option;  (* bundle directory, when one was written *)
}

type report = {
  total : int;
  outcomes : outcome array;
  ok : int;
  retried : int;
  timed_out : int;
  crashed : int;
  quarantined : int;
}

type policy = {
  jobs : int;
  deadline : float option;
  max_events : int option;
  retries : int;
  backoff : float;
  backoff_cap : float;
  grace : float;
  poll : float;
  transient : exn -> bool;
  forensics_dir : string option;
  forensic_trace : bool;
  repro_context : string option;
}

let default_policy =
  {
    jobs = 1;
    deadline = None;
    max_events = None;
    retries = 0;
    backoff = 0.1;
    backoff_cap = 2.0;
    grace = 1.0;
    poll = 0.05;
    transient = (fun _ -> false);
    forensics_dir = None;
    forensic_trace = false;
    repro_context = None;
  }

let clock = Unix.gettimeofday

let status_name = function
  | Completed { retries = 0 } -> "ok"
  | Completed { retries } -> Printf.sprintf "retried %d" retries
  | Timed_out _ -> "timed_out"
  | Crashed _ -> "crashed"
  | Quarantined _ -> "quarantined"

let is_failure = function
  | Completed _ -> false
  | Timed_out _ | Crashed _ | Quarantined _ -> true

(* ---- forensics ----------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

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
let write_bundle policy ~index ~(task : _ task) ~status ~failures ~collector =
  match policy.forensics_dir with
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
      (match (task.repro, policy.repro_context) with
      | Some r, _ -> p "repro: %s\n" r
      | None, Some ctx -> p "repro: %s   # task %s\n" ctx task.label
      | None, None -> p "repro: (not recorded)\n");
      List.iter
        (fun f ->
          p "attempt %d: %s\n" f.attempt f.exn_text;
          if f.backtrace <> "" then
            String.split_on_char '\n' f.backtrace
            |> List.iter (fun l -> if l <> "" then p "    %s\n" l))
        (List.rev failures);
      close_out oc;
      (match collector with
      | Some c ->
        Pcc_trace.Export.write_chrome_json
          ~path:(Filename.concat dir "trace.json")
          c;
        Pcc_trace.Export.write_decision_log
          ~path:(Filename.concat dir "decisions.log")
          c;
        Pcc_metrics.Series_io.write_multi_series
          ~path:(Filename.concat dir "trace.csv")
          (Pcc_trace.Export.csv_series c)
      | None -> ());
      Some dir
    with Sys_error _ -> None)

(* ---- the process-wide failure tally -------------------------------- *)

(* CLI front-ends render experiments through Exp_registry and only get a
   string back; failing outcomes are also recorded here so `pcc_sim exp`
   and friends can exit nonzero with a summary without threading reports
   through every render signature. *)
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

(* ---- one attempt --------------------------------------------------- *)

(* Runs one attempt under a Task_guard (and, when configured, a private
   trace ring so a failure has its own recent history to dump). Returns
   the result and, on failure, the collector that was recording in this
   domain — either the private forensic ring or whatever the caller had
   installed (e.g. a traced jobs=1 run). *)
let attempt_run policy (task : _ task) ~heartbeat =
  (* Forensics bundles are only as good as their backtraces; recording is
     domain-local in OCaml 5, so arm it here in the running domain. *)
  if not (Printexc.backtrace_status ()) then Printexc.record_backtrace true;
  let prev =
    if policy.forensic_trace then Pcc_trace.Collector.current () else None
  in
  if policy.forensic_trace then
    Pcc_trace.Collector.install
      (Pcc_trace.Collector.create ~capacity:16384 ());
  Pcc_sim.Task_guard.install ?deadline:policy.deadline
    ?max_events:policy.max_events ~heartbeat ~clock ();
  let result =
    try Ok (task.run ())
    with exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  Pcc_sim.Task_guard.uninstall ();
  let failing_collector =
    match result with
    | Ok _ -> None
    | Error _ -> Pcc_trace.Collector.current ()
  in
  if policy.forensic_trace then begin
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
  mutable s_attempt : int;
  mutable s_started : float;
  s_beat : float Atomic.t;  (* stamped by the task's guard *)
}

type 'a sched = {
  policy : policy;
  tasks : 'a task array;
  n : int;
  m : Mutex.t;
  cv : Condition.t;
  mutable fresh : int;  (* next never-attempted task *)
  mutable retry_q : (float * int * int) list;
      (* (ready_at, index, attempt), sorted by ready_at *)
  mutable inflight : int;
  mutable completed : int;  (* tasks with a final outcome *)
  mutable live_workers : int;
  results : 'a option array;
  outcomes : outcome option array;
  failures : failure list array;  (* per task, newest first *)
  slots : slot array;
}

let push_retry s ~ready_at ~index ~attempt =
  let rec insert = function
    | [] -> [ (ready_at, index, attempt) ]
    | (r, _, _) :: _ as rest when ready_at < r ->
      (ready_at, index, attempt) :: rest
    | e :: rest -> e :: insert rest
  in
  s.retry_q <- insert s.retry_q

(* Caller holds the lock. Records the final outcome for task [i] and
   writes its forensics bundle. Bundle IO happens under the lock: it
   only runs on failure paths, where contention is the least concern. *)
let finalize s i status collector =
  let task = s.tasks.(i) in
  let forensics =
    if is_failure status then
      write_bundle s.policy ~index:i ~task ~status ~failures:s.failures.(i)
        ~collector
    else None
  in
  s.outcomes.(i) <-
    Some
      {
        index = i;
        label = task.label;
        seed = task.seed;
        repro = task.repro;
        status;
        failures = s.failures.(i);
        forensics;
      };
  s.completed <- s.completed + 1;
  Condition.broadcast s.cv

(* Caller holds the lock. Settles one finished attempt: success, retry,
   or final failure. *)
let settle s ~index:i ~attempt result collector =
  match result with
  | Ok v ->
    s.results.(i) <- Some v;
    finalize s i (Completed { retries = attempt - 1 }) None
  | Error (exn, bt) ->
    let f =
      {
        attempt;
        exn_text = Printexc.to_string exn;
        backtrace = Printexc.raw_backtrace_to_string bt;
      }
    in
    s.failures.(i) <- f :: s.failures.(i);
    if is_timeout_exn exn then
      finalize s i (Timed_out { attempts = attempt }) collector
    else if s.policy.transient exn then
      if attempt <= s.policy.retries then begin
        let backoff =
          Float.min s.policy.backoff_cap
            (s.policy.backoff *. Float.pow 2. (float_of_int (attempt - 1)))
        in
        push_retry s ~ready_at:(clock () +. backoff) ~index:i
          ~attempt:(attempt + 1);
        Condition.broadcast s.cv
      end
      else finalize s i (Quarantined { attempts = attempt; last = f }) collector
    else finalize s i (Crashed f) collector

(* ---- worker -------------------------------------------------------- *)

type work = Run of int * int | Wait_until of float | Wait | Done

let take_work s =
  if s.completed >= s.n then Done
  else begin
    let now = clock () in
    match s.retry_q with
    | (ready, i, attempt) :: rest when ready <= now ->
      s.retry_q <- rest;
      Run (i, attempt)
    | _ ->
      if s.fresh < s.n then begin
        let i = s.fresh in
        s.fresh <- s.fresh + 1;
        Run (i, 1)
      end
      else begin
        match s.retry_q with
        | (ready, _, _) :: _ -> Wait_until ready
        | [] -> Wait
      end
  end

(* The worker bound to [slot] while [slot.s_epoch = epoch]. Holds the
   lock except while running a task or sleeping out a backoff. *)
let worker s slot epoch =
  Mutex.lock s.m;
  let rec loop () =
    match take_work s with
    | Done -> Mutex.unlock s.m
    | Wait ->
      Condition.wait s.cv s.m;
      loop ()
    | Wait_until ready ->
      Mutex.unlock s.m;
      Unix.sleepf (Float.min 0.05 (Float.max 0.001 (ready -. clock ())));
      Mutex.lock s.m;
      loop ()
    | Run (i, attempt) ->
      slot.s_task <- i;
      slot.s_attempt <- attempt;
      slot.s_started <- clock ();
      Atomic.set slot.s_beat slot.s_started;
      s.inflight <- s.inflight + 1;
      Mutex.unlock s.m;
      let result, collector =
        attempt_run s.policy s.tasks.(i) ~heartbeat:slot.s_beat
      in
      Mutex.lock s.m;
      if slot.s_epoch <> epoch then
        (* The watchdog abandoned us mid-task: our outcome was already
           recorded as timed out and a replacement owns the slot. This
           domain must touch nothing and die. *)
        Mutex.unlock s.m
      else begin
        slot.s_task <- -1;
        s.inflight <- s.inflight - 1;
        settle s ~index:i ~attempt result collector;
        loop ()
      end
  in
  loop ()

(* ---- watchdog / coordinator ---------------------------------------- *)

(* Caller holds the lock. Abandons the task in [slot]: final timed-out
   outcome, epoch bump so the hung worker's eventual return is
   discarded, and a replacement worker so the pool keeps its width. *)
let abandon s w slot =
  let i = slot.s_task in
  let stale = clock () -. Float.max slot.s_started (Atomic.get slot.s_beat) in
  slot.s_epoch <- slot.s_epoch + 1;
  slot.s_task <- -1;
  s.inflight <- s.inflight - 1;
  s.failures.(i) <-
    {
      attempt = slot.s_attempt;
      exn_text =
        Printf.sprintf
          "watchdog: no heartbeat for %.1fs (task stuck outside the engine); \
           worker domain abandoned"
          stale;
      backtrace = "";
    }
    :: s.failures.(i);
  finalize s i (Timed_out { attempts = slot.s_attempt }) None;
  let epoch = slot.s_epoch in
  match Domain.spawn (fun () -> worker s slot epoch) with
  | d -> Some (w, epoch, d)
  | exception _ ->
    (* Could not replace the worker (domain limit): the pool narrows. *)
    s.live_workers <- s.live_workers - 1;
    None

let run_pooled policy tasks n =
  let s =
    {
      policy;
      tasks;
      n;
      m = Mutex.create ();
      cv = Condition.create ();
      fresh = 0;
      retry_q = [];
      inflight = 0;
      completed = 0;
      live_workers = policy.jobs;
      results = Array.make n None;
      outcomes = Array.make n None;
      failures = Array.make n [];
      slots =
        Array.init policy.jobs (fun _ ->
            {
              s_epoch = 0;
              s_task = -1;
              s_attempt = 0;
              s_started = 0.;
              s_beat = Atomic.make 0.;
            });
    }
  in
  let handles = ref [] in
  Array.iteri
    (fun w slot -> handles := (w, 0, Domain.spawn (fun () -> worker s slot 0)) :: !handles)
    s.slots;
  let hard_deadline =
    match policy.deadline with
    | Some d -> Some (d +. policy.grace)
    | None -> None
  in
  Mutex.lock s.m;
  let rec supervise () =
    if s.completed < s.n then begin
      match hard_deadline with
      | None ->
        (* Nothing to watchdog: just wait for completions. *)
        Condition.wait s.cv s.m;
        supervise ()
      | Some hd ->
        Mutex.unlock s.m;
        Unix.sleepf policy.poll;
        Mutex.lock s.m;
        let now = clock () in
        Array.iteri
          (fun w slot ->
            if slot.s_task >= 0 then begin
              let last =
                Float.max slot.s_started (Atomic.get slot.s_beat)
              in
              if now -. last > hd then
                match abandon s w slot with
                | Some h -> handles := h :: !handles
                | None -> ()
            end)
          s.slots;
        if s.live_workers = 0 then begin
          (* Every worker hung and could not be replaced: fail the rest
             of the sweep rather than spin forever. *)
          for i = 0 to s.n - 1 do
            if s.outcomes.(i) = None && not (Array.exists (fun sl -> sl.s_task = i) s.slots)
            then begin
              s.failures.(i) <-
                {
                  attempt = 0;
                  exn_text = "supervisor: no worker domains left";
                  backtrace = "";
                }
                :: s.failures.(i);
              finalize s i
                (Crashed (List.hd s.failures.(i)))
                None
            end
          done
        end;
        supervise ()
    end
  in
  supervise ();
  Mutex.unlock s.m;
  (* Join the workers that still own their slot; abandoned domains are
     leaked by design (they are wedged) and die with the process. *)
  List.iter
    (fun (w, epoch, d) ->
      if s.slots.(w).s_epoch = epoch then Domain.join d)
    !handles;
  s

let run_inline policy tasks n =
  let s =
    {
      policy;
      tasks;
      n;
      m = Mutex.create ();
      cv = Condition.create ();
      fresh = 0;
      retry_q = [];
      inflight = 0;
      completed = 0;
      live_workers = 1;
      results = Array.make n None;
      outcomes = Array.make n None;
      failures = Array.make n [];
      slots =
        [|
          {
            s_epoch = 0;
            s_task = -1;
            s_attempt = 0;
            s_started = 0.;
            s_beat = Atomic.make 0.;
          };
        |];
    }
  in
  (* The caller is the only worker: in-band guard limits apply, the
     out-of-band watchdog does not (there is no domain to abandon the
     caller from). *)
  worker s s.slots.(0) 0;
  s

(* ---- entry point --------------------------------------------------- *)

let report_of s =
  let outcomes =
    Array.mapi
      (fun i o ->
        match o with
        | Some o -> o
        | None ->
          (* Unreachable: every task gets a final outcome before the
             scheduler returns. *)
          {
            index = i;
            label = s.tasks.(i).label;
            seed = s.tasks.(i).seed;
            repro = s.tasks.(i).repro;
            status =
              Crashed
                { attempt = 0; exn_text = "missing outcome"; backtrace = "" };
            failures = [];
            forensics = None;
          })
      s.outcomes
  in
  let count f = Array.fold_left (fun a o -> if f o.status then a + 1 else a) 0 outcomes in
  {
    total = s.n;
    outcomes;
    ok = count (function Completed { retries = 0 } -> true | _ -> false);
    retried = count (function Completed { retries } -> retries > 0 | _ -> false);
    timed_out = count (function Timed_out _ -> true | _ -> false);
    crashed = count (function Crashed _ -> true | _ -> false);
    quarantined = count (function Quarantined _ -> true | _ -> false);
  }

let failed (r : report) = r.timed_out + r.crashed + r.quarantined > 0

let summary_line (r : report) =
  let failing =
    Array.to_list r.outcomes
    |> List.filter (fun o -> is_failure o.status)
    |> List.map (fun o ->
           Printf.sprintf "%s (%s)"
             (if o.label = "" then string_of_int o.index else o.label)
             (status_name o.status))
  in
  let base =
    Printf.sprintf "%d/%d task(s) ok%s" (r.ok + r.retried) r.total
      (if r.retried > 0 then Printf.sprintf " (%d after retries)" r.retried
       else "")
  in
  if failing = [] then base
  else
    Printf.sprintf "%s; %d timed out, %d crashed, %d quarantined: %s" base
      r.timed_out r.crashed r.quarantined
      (String.concat ", " failing)

let pp_report fmt (r : report) =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun o ->
      Format.fprintf fmt "%3d %-40s %s@,"
        o.index
        (if o.label = "" then "(unlabelled)" else o.label)
        (status_name o.status))
    r.outcomes;
  Format.fprintf fmt "@]"

let run ?(policy = default_policy) tasks_list =
  if policy.jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if policy.retries < 0 then invalid_arg "Supervisor.run: retries must be >= 0";
  if policy.backoff < 0. || policy.backoff_cap < 0. then
    invalid_arg "Supervisor.run: backoff must be >= 0";
  if policy.poll <= 0. then invalid_arg "Supervisor.run: poll must be positive";
  if policy.grace < 0. then invalid_arg "Supervisor.run: grace must be >= 0";
  let tasks = Array.of_list tasks_list in
  let n = Array.length tasks in
  if n = 0 then
    ( [],
      {
        total = 0;
        outcomes = [||];
        ok = 0;
        retried = 0;
        timed_out = 0;
        crashed = 0;
        quarantined = 0;
      } )
  else begin
    let s =
      if policy.jobs = 1 then run_inline policy tasks n
      else run_pooled policy tasks n
    in
    let report = report_of s in
    record_failures report;
    (Array.to_list s.results, report)
  end
