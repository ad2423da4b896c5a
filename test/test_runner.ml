(* The executor (Pcc_experiments.Runner) and its supervision, the event
   heap's exact live count, and the determinism contract: identical
   output for any --jobs. *)

open Pcc_experiments
module Heap = Pcc_sim.Event_heap

(* ------------------------------------------------------------------ *)
(* Event heap: exact size under cancellation. *)

let test_heap_size_buried_cancel () =
  let h = Heap.create () in
  let handles =
    List.map (fun t -> (t, Heap.push h ~time:t t)) [ 5.; 1.; 4.; 2.; 3. ]
  in
  Alcotest.(check int) "five live" 5 (Heap.size h);
  (* Cancel entries that are NOT at the root (times 4 and 5): they stay
     buried in the arrays but must stop counting immediately. *)
  List.iter (fun (t, han) -> if t >= 4. then Heap.cancel han) handles;
  Alcotest.(check int) "three live after burying two" 3 (Heap.size h);
  Alcotest.(check bool) "not empty" false (Heap.is_empty h);
  (* Pops only surface the live ones, in order. *)
  let order = List.filter_map (fun _ -> Heap.pop h) [ (); (); (); () ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "live events in time order"
    [ (1., 1.); (2., 2.); (3., 3.) ]
    order;
  Alcotest.(check int) "drained" 0 (Heap.size h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_cancel_all_is_empty () =
  let h = Heap.create () in
  let handles = List.init 8 (fun i -> Heap.push h ~time:(float_of_int i) i) in
  List.iter Heap.cancel handles;
  Alcotest.(check int) "size 0 with 8 dead entries stored" 0 (Heap.size h);
  Alcotest.(check bool) "is_empty despite stored entries" true (Heap.is_empty h);
  Alcotest.(check bool) "pop finds nothing" true (Heap.pop h = None)

let test_heap_cancel_after_pop () =
  let h = Heap.create () in
  let a = Heap.push h ~time:1. "a" in
  let _b = Heap.push h ~time:2. "b" in
  Alcotest.(check bool) "popped a" true (Heap.pop h = Some (1., "a"));
  (* Cancelling a's handle after it was popped must not corrupt the
     count of the remaining live entry. *)
  Heap.cancel a;
  Heap.cancel a;
  Alcotest.(check int) "b still counted" 1 (Heap.size h);
  Alcotest.(check bool) "cancelled is false for popped" false (Heap.cancelled a);
  Alcotest.(check bool) "popped b" true (Heap.pop h = Some (2., "b"))

let test_heap_double_cancel () =
  let h = Heap.create () in
  let a = Heap.push h ~time:1. 1 in
  let _b = Heap.push h ~time:2. 2 in
  Heap.cancel a;
  Heap.cancel a;
  Alcotest.(check int) "double cancel decrements once" 1 (Heap.size h)

let test_heap_pop_le () =
  let h = Heap.create () in
  let _ = Heap.push h ~time:1. 1 in
  let h2 = Heap.push h ~time:2. 2 in
  let _ = Heap.push h ~time:3. 3 in
  Alcotest.(check bool) "pop_le below earliest" true
    (Heap.pop_le h ~max_time:0.5 = None);
  Alcotest.(check bool) "pop_le at 2.5 gives 1" true
    (Heap.pop_le h ~max_time:2.5 = Some (1., 1));
  Heap.cancel h2;
  (* The cancelled 2 must be skipped without being returned. *)
  Alcotest.(check bool) "pop_le skips cancelled" true
    (Heap.pop_le h ~max_time:2.5 = None);
  Alcotest.(check int) "only 3 remains" 1 (Heap.size h);
  Alcotest.(check bool) "3 still there" true
    (Heap.pop_le h ~max_time:10. = Some (3., 3))

let test_heap_tie_break_fifo () =
  let h = Heap.create () in
  List.iter (fun v -> ignore (Heap.push h ~time:1. v)) [ "a"; "b"; "c" ];
  let order = List.filter_map (fun _ -> Heap.pop h) [ (); (); () ] in
  Alcotest.(check (list (pair (float 0.) string)))
    "simultaneous events pop in insertion order"
    [ (1., "a"); (1., "b"); (1., "c") ]
    order

(* ------------------------------------------------------------------ *)
(* Runner: order preservation, seeds, errors. *)

(* Burn CPU proportionally to [n] so tasks finish out of submission
   order under real parallelism (and under any scheduling). *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n * 20_000 do
    acc := !acc + (i land 7)
  done;
  Sys.opaque_identity !acc

let test_map_preserves_order () =
  Runner.with_pool ~jobs:4 (fun pool ->
      let n = 32 in
      (* Task i works longest when i is smallest: completion order is
         roughly the reverse of submission order. *)
      let inputs = Array.init n (fun i -> i) in
      let results =
        Runner.map pool
          (fun i ->
            ignore (busy (n - i));
            i * i)
          inputs
      in
      Alcotest.(check (array int))
        "slots in task order regardless of completion order"
        (Array.init n (fun i -> i * i))
        results)

let test_map_list_matches_sequential () =
  let inputs = List.init 50 (fun i -> i) in
  let f i = (i * 7919) mod 1001 in
  let seq = List.map f inputs in
  Runner.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int))
        "map_list = List.map" seq
        (Runner.map_list pool f inputs))

let test_derive_seed_pure_and_distinct () =
  let s = Runner.derive_seed ~master:42 ~index:7 in
  Alcotest.(check int) "deterministic" s
    (Runner.derive_seed ~master:42 ~index:7);
  Alcotest.(check bool) "non-negative" true (s >= 0);
  let seeds =
    List.init 1000 (fun i -> Runner.derive_seed ~master:42 ~index:i)
  in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "1000 indices, 1000 distinct seeds" 1000
    (List.length distinct);
  Alcotest.(check bool) "different master, different stream" true
    (Runner.derive_seed ~master:1 ~index:0
    <> Runner.derive_seed ~master:2 ~index:0)

let test_derive_seed_independent_of_completion_order () =
  (* Each task derives its seed inside the task body; delays reverse the
     completion order. The derived seeds must still be exactly the
     sequential ones, slot by slot. *)
  let n = 16 in
  let expected = Array.init n (fun i -> Runner.derive_seed ~master:7 ~index:i) in
  Runner.with_pool ~jobs:4 (fun pool ->
      let got =
        Runner.map pool
          (fun i ->
            ignore (busy (n - i));
            Runner.derive_seed ~master:7 ~index:i)
          (Array.init n (fun i -> i))
      in
      Alcotest.(check (array int))
        "per-task seeds independent of scheduling" expected got)

exception Task_failed of int

let test_lowest_index_error_wins () =
  Runner.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Runner.map pool
               (fun i ->
                 ignore (busy (24 - i));
                 (* Index 20 fails fast, index 3 fails slow: the slow,
                    lower-indexed failure must be the one reported. *)
                 if i = 3 || i = 20 then raise (Task_failed i);
                 i)
               (Array.init 24 (fun i -> i)));
          None
        with Task_failed i -> Some i
      in
      Alcotest.(check (option int)) "lowest-indexed exception" (Some 3) raised)

let test_jobs_one_inline () =
  Runner.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Runner.jobs pool);
      Alcotest.(check (list int))
        "inline map works" [ 2; 4; 6 ]
        (Runner.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* The determinism contract, end to end: rendered experiment tables are
   byte-identical for --jobs 1/2/8. *)

let rendered_loss ?pool () =
  Exp_common.render_table
    (Exp_loss.table
       (Exp_loss.run ?pool ~scale:0.02 ~seed:11 ~losses:[ 0.0; 0.02 ] ()))

let rendered_game ?pool () =
  Exp_common.render_table
    (Exp_game.table (Exp_game.run ?pool ~seed:11 ~ns:[ 2; 5 ] ()))

let test_tables_byte_identical_across_jobs () =
  let seq_loss = rendered_loss () in
  let seq_game = rendered_game () in
  List.iter
    (fun jobs ->
      Runner.with_pool ~jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "fig7 subset identical at jobs=%d" jobs)
            seq_loss
            (rendered_loss ~pool ());
          Alcotest.(check string)
            (Printf.sprintf "game identical at jobs=%d" jobs)
            seq_game
            (rendered_game ~pool ())))
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Supervision: sweeps survive hangs and crashes with partial results. *)

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

let contains hay needle = count_occurrences hay needle > 0

(* An engine that reschedules itself forever: only the in-band Task_guard
   (deadline or event ceiling) gets out of [Engine.run]. *)
let engine_hang () =
  let engine = Pcc_sim.Engine.create () in
  let rec tick () = ignore (Pcc_sim.Engine.schedule_in engine ~after:1e-3 tick) in
  tick ();
  Pcc_sim.Engine.run engine;
  -1

let status_at (r : Runner.report) i = r.Runner.outcomes.(i).status

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_gauntlet_partial_results () =
  let dir = temp_dir "pcc-gauntlet" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let crash_runs = Atomic.make 0 in
  let tasks =
    [
      Exp_common.task ~label:"ok-before" (fun () -> 10);
      Exp_common.task ~label:"hang" engine_hang;
      Exp_common.task ~label:"crash" ~repro:"pcc_sim exp crash" (fun () ->
          Atomic.incr crash_runs;
          failwith "gauntlet: injected crash");
      Exp_common.task ~label:"ok-after" (fun () -> 20);
    ]
  in
  let pool =
    Runner.create ~jobs:2 ~deadline:0.3 ~forensics_dir:dir ~forensic_trace:true
      ()
  in
  let results, report = Runner.run pool tasks in
  Alcotest.(check (list (option int)))
    "healthy tasks complete around the failures"
    [ Some 10; None; None; Some 20 ]
    results;
  Alcotest.(check (list int))
    "counts: total/ok/timed_out/crashed"
    [ 4; 2; 1; 1 ]
    [ report.total; report.ok; report.timed_out; report.crashed ];
  (match status_at report 1 with
  | Runner.Timed_out -> ()
  | s -> Alcotest.failf "hang should time out, got %s" (Runner.status_name s));
  (match status_at report 2 with
  | Runner.Crashed f ->
    Alcotest.(check bool) "crash text recorded" true
      (contains f.Runner.exn_text "injected crash")
  | s -> Alcotest.failf "crash should crash, got %s" (Runner.status_name s));
  Alcotest.(check int) "the crash ran exactly once" 1 (Atomic.get crash_runs);
  (match report.outcomes.(2).forensics with
  | Some d ->
    Alcotest.(check int) "bundle holds the exception once" 1
      (count_occurrences
         (read_file (Filename.concat d "report.txt"))
         "gauntlet: injected crash")
  | None -> Alcotest.fail "no forensics bundle for the crash");
  Alcotest.(check bool) "report failed" true (Runner.failed report);
  let line = Runner.summary_line report in
  Alcotest.(check bool) "summary names the hang" true (contains line "hang");
  Alcotest.(check bool) "summary names the crash" true (contains line "crash");
  (* Both failures leave forensics bundles with a report and a trace. *)
  Array.iter
    (fun (o : Runner.outcome) ->
      if Runner.is_failure o.status then
        match o.forensics with
        | None -> Alcotest.failf "no forensics bundle for %s" o.label
        | Some d ->
          List.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "%s has %s" o.label f)
                true
                (Sys.file_exists (Filename.concat d f)))
            [ "report.txt"; "trace.json"; "decisions.log" ])
    report.outcomes;
  Runner.reset_failures ()

let test_watchdog_abandons_non_engine_hang () =
  (* A spin loop never dispatches engine events, so the in-band guard is
     silent and only the out-of-band watchdog can classify the hang. *)
  let release = Atomic.make false in
  let spinner () =
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    -1
  in
  let tasks =
    [
      Exp_common.task ~label:"ok-a" (fun () -> 1);
      Exp_common.task ~label:"spin" spinner;
      Exp_common.task ~label:"ok-b" (fun () -> 2);
    ]
  in
  let results, report =
    Runner.run (Runner.create ~jobs:2 ~deadline:0.2 ()) tasks
  in
  (* Unwedge the abandoned domain so the process can exit cleanly. *)
  Atomic.set release true;
  Alcotest.(check (list (option int)))
    "spin abandoned, neighbours complete"
    [ Some 1; None; Some 2 ]
    results;
  (match status_at report 1 with
  | Runner.Timed_out -> ()
  | s ->
    Alcotest.failf "watchdog should time the spinner out, got %s"
      (Runner.status_name s));
  Runner.reset_failures ()

let test_timeouts_never_retried () =
  (* A task that blew its event ceiling is not re-run: timeouts are
     deterministic, so one run gives one timed-out outcome. *)
  let runs = Atomic.make 0 in
  let _, report =
    Runner.run
      (Runner.create ~jobs:1 ~max_events:1_000 ())
      [
        Exp_common.task ~label:"hog" (fun () ->
            Atomic.incr runs;
            engine_hang ());
      ]
  in
  (match status_at report 0 with
  | Runner.Timed_out -> ()
  | s ->
    Alcotest.failf "ceiling should time the hog out, got %s"
      (Runner.status_name s));
  Alcotest.(check int) "the hog ran exactly once" 1 (Atomic.get runs);
  Runner.reset_failures ()

let test_empty_sweep () =
  let results, report = Runner.run (Runner.create ~jobs:4 ()) [] in
  Alcotest.(check int) "no results" 0 (List.length results);
  Alcotest.(check int) "empty report" 0 report.Runner.total;
  Alcotest.(check bool) "not failed" false (Runner.failed report)

(* Rendered tables are byte-identical whether the sweep runs inline or
   across worker domains, with a guard and the watchdog armed. *)
let test_supervised_tables_byte_identical () =
  let render jobs =
    let pool = Runner.create ~jobs ~deadline:600. ~max_events:max_int () in
    Exp_common.render_table
      (Exp_loss.table
         (Exp_loss.run ~pool ~scale:0.02 ~seed:11 ~losses:[ 0.0; 0.02 ] ()))
  in
  let seq = rendered_loss () in
  Alcotest.(check string) "supervised jobs=1 = plain sequential" seq (render 1);
  Alcotest.(check string) "supervised jobs=4 = plain sequential" seq (render 4)

(* The executor's settings reach the tasks an experiment hands to
   [run_tasks_opt], inline and across domains: the event ceiling times
   the hang out in place and both neighbours complete. *)
let test_run_tasks_opt_applies_settings () =
  List.iter
    (fun jobs ->
      Runner.reset_failures ();
      let results =
        Exp_common.run_tasks_opt
          ~pool:(Runner.create ~jobs ~max_events:10_000 ())
          [
            Exp_common.task ~label:"ok-a" (fun () -> 1);
            Exp_common.task ~label:"hang" engine_hang;
            Exp_common.task ~label:"ok-b" (fun () -> 2);
          ]
      in
      Alcotest.(check (list (option int)))
        (Printf.sprintf "jobs=%d: hang is a hole, neighbours complete" jobs)
        [ Some 1; None; Some 2 ]
        results;
      match Runner.failures () with
      | [ { Runner.label = "hang"; status = Runner.Timed_out; _ } ] -> ()
      | l ->
        Alcotest.failf
          "jobs=%d: expected one timed-out tally entry for the hang, got [%s]"
          jobs
          (String.concat "; "
             (List.map
                (fun (o : Runner.outcome) ->
                  o.label ^ ": " ^ Runner.status_name o.status)
                l)))
    [ 1; 2 ];
  Runner.reset_failures ()

(* ------------------------------------------------------------------ *)
(* Registry: unique names, one rendering whatever the pool, and a series
   dump that adds only its note line. *)

let test_registry () =
  let names = List.map (fun e -> e.Exp_registry.name) Exp_registry.all in
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let selected l =
    match Exp_registry.select ~extra:[] l with
    | Ok es -> List.map (fun e -> e.Exp_registry.name) es
    | Error m -> Alcotest.failf "select: %s" m
  in
  Alcotest.(check (list string)) "no name selects all" names (selected []);
  Alcotest.(check (list string))
    "command-line order" [ "fig7"; "game"; "fig7" ]
    (selected [ "fig7"; "game"; "fig7" ]);
  Alcotest.(check (result (list string) string))
    "unknown names"
    (Error "error: unknown experiment(s): nope, zzz (try --list)")
    (Result.map (List.map (fun e -> e.Exp_registry.name))
       (Exp_registry.select ~extra:[] [ "nope"; "game"; "zzz" ]));
  let entry n = List.hd (Result.get_ok (Exp_registry.select ~extra:[] [ n ])) in
  let game jobs =
    Exp_registry.render ~pool:(Runner.create ~jobs ()) ~scale:0.05 ~seed:42
      (entry "game")
    |> fst
  in
  Alcotest.(check string) "game: jobs 1 = jobs 2" (game 1) (game 2);
  let dir = temp_dir "pcc-registry" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fig11 = entry "fig11" in
  let plain, _ = Exp_registry.render ~scale:0.01 ~seed:42 fig11 in
  let dumped, error =
    Exp_registry.render ~dump_dir:dir ~scale:0.01 ~seed:42 fig11
  in
  Alcotest.(check (option string)) "series written" None error;
  let path = Filename.concat dir "fig11_rate_tracking.csv" in
  Alcotest.(check string)
    "dump appends one note line"
    (plain ^ Printf.sprintf "[series written to %s]\n" path)
    dumped;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " series written") true (contains csv s))
    [ "pcc-rate,"; "pcc-optimal," ];
  (* A series file that cannot be written is reported, not raised, and
     the tables still come back. *)
  Sys.remove path;
  Sys.mkdir path 0o755;
  let text, error =
    Exp_registry.render ~dump_dir:dir ~scale:0.01 ~seed:42 fig11
  in
  Alcotest.(check string) "tables without the note line" plain text;
  Alcotest.(check bool) "write error reported" true (error <> None)

let suites =
  [
    ( "event_heap.live_count",
      [
        Alcotest.test_case "buried cancellations" `Quick
          test_heap_size_buried_cancel;
        Alcotest.test_case "cancel all -> empty" `Quick
          test_heap_cancel_all_is_empty;
        Alcotest.test_case "cancel after pop" `Quick test_heap_cancel_after_pop;
        Alcotest.test_case "double cancel" `Quick test_heap_double_cancel;
        Alcotest.test_case "pop_le" `Quick test_heap_pop_le;
        Alcotest.test_case "FIFO tie-break" `Quick test_heap_tie_break_fifo;
      ] );
    ( "runner",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "map_list = List.map" `Quick
          test_map_list_matches_sequential;
        Alcotest.test_case "derive_seed pure+distinct" `Quick
          test_derive_seed_pure_and_distinct;
        Alcotest.test_case "seeds independent of scheduling" `Quick
          test_derive_seed_independent_of_completion_order;
        Alcotest.test_case "lowest-index error wins" `Quick
          test_lowest_index_error_wins;
        Alcotest.test_case "jobs=1 inline" `Quick test_jobs_one_inline;
      ] );
    ( "runner.determinism",
      [
        Alcotest.test_case "tables byte-identical jobs 1/2/8" `Slow
          test_tables_byte_identical_across_jobs;
      ] );
    ( "supervisor",
      [
        Alcotest.test_case "gauntlet: hang+crash, partial results" `Quick
          test_gauntlet_partial_results;
        Alcotest.test_case "watchdog abandons non-engine hang" `Quick
          test_watchdog_abandons_non_engine_hang;
        Alcotest.test_case "timeouts never retried" `Quick
          test_timeouts_never_retried;
        Alcotest.test_case "empty sweep" `Quick test_empty_sweep;
        Alcotest.test_case "supervised tables byte-identical jobs 1/4" `Slow
          test_supervised_tables_byte_identical;
        Alcotest.test_case "run_tasks_opt applies executor settings" `Quick
          test_run_tasks_opt_applies_settings;
      ] );
    ( "registry",
      [
        Alcotest.test_case "names, render across pools, series dump" `Quick
          test_registry;
      ] );
  ]
