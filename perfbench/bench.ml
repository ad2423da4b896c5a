(* Running a workload: measured passes with tracing off, the traced pass
   with its parity check, and the metrics both report. *)

open Workloads
module Exp_common = Pcc_experiments.Exp_common
module Runner = Pcc_experiments.Runner

let default_seed = 42

type task_result = {
  task : task;
  result : (outcome * timing * Wiring.layers option, string) result;
}

type pass = {
  results : task_result list;  (* task order *)
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let run_pass ?pool ~traced tasks =
  let run task =
    if traced then
      let o, l, t = Wiring.run_traced task in
      (o, t, Some l)
    else
      let o, t = run_plain task in
      (o, t, None)
  in
  let tasks =
    List.map
      (fun task ->
        Exp_common.task ~label:task.label ~seed:task.seed (fun () ->
            {
              task;
              result = (try Ok (run task) with e -> Error (Printexc.to_string e));
            }))
      tasks
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = Host.cpu_s () and t0 = Host.now () in
  let results = Exp_common.run_tasks ?pool tasks in
  let wall_s = Host.now () -. t0 and cpu_s = Host.cpu_s () -. c0 in
  let g1 = Gc.quick_stat () in
  {
    results;
    wall_s;
    cpu_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let with_pool w f =
  if w.domains > 1 then Runner.with_pool ~jobs:w.domains (fun p -> f (Some p))
  else f None

(* A task fails if it raised, broke an invariant, or differs from its
   committed digest where one applies. *)
let verdict ~digests r =
  match r.result with
  | Error e -> Error (r.task.label ^ ": " ^ e)
  | Ok (o, _, _) -> (
    match check r.task o with
    | Error _ as e -> e
    | Ok () -> (
      match digests with
      | None -> Ok ()
      | Some table -> (
        match List.assoc_opt r.task.label table with
        | Some d when d = digest r.task o -> Ok ()
        | Some _ -> Error (r.task.label ^ ": output differs from the committed digest")
        | None -> Error (r.task.label ^ ": no committed digest"))))

let failures ~digests pass =
  List.filter_map
    (fun r -> match verdict ~digests r with Ok () -> None | Error e -> Some e)
    pass.results

let timings pass =
  List.filter_map
    (fun r -> match r.result with Ok (_, t, _) -> Some t | Error _ -> None)
    pass.results

let events pass =
  List.fold_left
    (fun a r -> match r.result with Ok (o, _, _) -> a + o.events | Error _ -> a)
    0 pass.results

let median l =
  match List.sort compare l with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum l = List.fold_left ( +. ) 0. l

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { name : string; value : float; unit : string }

type report = {
  lines : string list;  (* human-readable, printed before the JSON *)
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_of_report r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.failed = 0) r.attempted r.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name
        (if Float.is_finite m.value then m.value else 0.)
        m.unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let metric_lines metrics =
  List.map
    (fun m -> Printf.sprintf "  %-24s %16.6f %s" m.name m.value m.unit)
    metrics

(* The committed digests describe the default size at master seed 42, or
   at the workload's fixed master seed. *)
let digests_for w ~seed size =
  if size = default_size && (w.master <> None || seed = default_seed) then
    Some Digests.all
  else None

let tasks_for w ~seed size =
  w.tasks ~master:(Option.value w.master ~default:seed) size

(* ------------------------------------------------------------------ *)
(* The measured run: whole passes over the batch, tracing off, until the
   time budget would be overrun (at least one pass). Every pass does the
   same simulated work, so a slower pass is the host's doing, not the
   program's: each time metric is the fastest pass. On the shared 2-core
   host the same pass ran at one of two speeds about 1.7x apart, switching
   every few seconds to minutes, and the median over a run followed
   whichever speed held most of it; the medians are printed too.
   Every workload runs on one domain here, even [loss-sweep]: a two-domain
   pass waits on the second core at every minor-GC barrier, and its median
   pass time moved by 2x between runs of the same code while its CPU time
   moved by 12%. The executor's own figures come from the traced run,
   which keeps the workload's pool. *)

let measure w ~seed ~seconds ~size =
  let tasks = tasks_for w ~seed size in
  let digests = digests_for w ~seed size in
  let passes =
    let start = Host.now () in
    let rec loop acc =
      let acc = run_pass ~traced:false tasks :: acc in
      let typical = median (List.map (fun p -> p.wall_s) acc) in
      if Host.now () -. start +. typical <= seconds then loop acc
      else List.rev acc
    in
    loop []
  in
  let errors = List.concat_map (failures ~digests) passes in
  let wall = List.map (fun p -> p.wall_s) passes
  and setup =
    List.map (fun p -> sum (List.map (fun t -> t.setup_s) (timings p))) passes
  and cpu = List.map (fun p -> p.cpu_s) passes in
  let fastest = List.fold_left Float.min Float.infinity in
  let metrics =
    [
      { name = "wall_s"; value = fastest wall; unit = "s" };
      { name = "setup_s"; value = fastest setup; unit = "s" };
      { name = "cpu_s"; value = fastest cpu; unit = "s" };
      { name = "peak_rss_mb"; value = Host.peak_rss_mb (); unit = "MB" };
    ]
  in
  let attempted = List.length tasks * List.length passes in
  {
    lines =
      [
        Printf.sprintf "perfbench %s: %s" w.name w.why;
        Printf.sprintf "host: %s" (Host.facts ~seed);
        Printf.sprintf "passes: %d (fastest below), digest check: %s"
          (List.length passes)
          (if digests = None then "off (invariants only)" else "on");
        "pass wall_s:"
        ^ String.concat "" (List.map (Printf.sprintf " %.4f") wall);
        Printf.sprintf "medians: wall_s %.4f s, setup_s %.4f s, cpu_s %.4f s"
          (median wall) (median setup) (median cpu);
      ]
      @ metric_lines metrics
      @ [
          Printf.sprintf "  %-24s %16d (simulated work per pass)" "events"
            (events (List.hd passes));
          Printf.sprintf "  %-24s %16d" "tasks" attempted;
          Printf.sprintf "  %-24s %16d" "failed" (List.length errors);
        ]
      @ List.map (fun e -> "  FAILED " ^ e) errors;
    attempted;
    failed = List.length errors;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* The traced run: an untraced warm-up pass, the traced pass (per-layer
   spans), and an untraced pass (parity reference, GC, executor and
   topology-build figures, and the base of the tracing overhead). *)

let traced w ~seed ~size =
  let tasks = tasks_for w ~seed size in
  let digests = digests_for w ~seed size in
  let w0, t, u =
    with_pool w (fun pool ->
        let w0 = run_pass ?pool ~traced:false tasks in
        let t = run_pass ?pool ~traced:true tasks in
        let u = run_pass ?pool ~traced:false tasks in
        (w0, t, u))
  in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  (* Parity: both passes did the same simulated work. *)
  let outs pass =
    List.map
      (fun r ->
        match r.result with
        | Ok (o, _, _) -> Some (o.events, digest r.task o)
        | Error _ -> None)
      pass.results
  in
  let ou = outs u and ot = outs t in
  let same = List.map2 ( = ) ou ot in
  let mismatched = List.length (List.filter not same) in
  (* A traced task fails on its own checks or, failing none, on parity. *)
  let traced_errors =
    List.concat
      (List.map2
         (fun r same ->
           match verdict ~digests r with
           | Error e -> [ e ]
           | Ok () when same -> []
           | Ok () -> [ r.task.label ^ ": traced and untraced passes differ" ])
         t.results same)
  in
  let errors = failures ~digests w0 @ traced_errors @ failures ~digests u in
  let total_events l =
    List.fold_left (fun a -> function Some (e, _) -> a + e | None -> a) 0 l
  in
  let combined l =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (List.map (function Some (_, d) -> d | None -> "-") l)))
  in
  let acc = Spans.totals () in
  let delivered = ref 0 and drops = ref 0 and mis = ref 0 in
  List.iter
    (fun r ->
      match r.result with
      | Ok (_, _, Some l) ->
        Spans.add acc l.Wiring.tracer;
        delivered := !delivered + l.Wiring.delivered;
        drops := !drops + l.Wiring.queue_drops;
        mis := !mis + l.Wiring.mis
      | Ok (_, _, None) | Error _ -> ())
    t.results;
  let events = total_events ot in
  let self l = acc.Spans.t_self.(l) and calls l = float_of_int acc.Spans.t_calls.(l) in
  let ut = timings u in
  let task_times = List.map (fun x -> x.task_s) ut in
  let m name value unit = { name; value; unit } in
  let metrics =
    [
      m "sim.events" (float_of_int events) "count";
      m "sim.peak_pending" (float_of_int acc.Spans.t_peak_pending) "count";
      m "sim.self_s" (self Spans.sim) "s";
      m "sim.ns_per_event"
        (if events > 0 then self Spans.sim /. float_of_int events *. 1e9 else 0.)
        "ns";
      m "link.packets" (calls Spans.link) "count";
      m "link.queue_drops" (float_of_int !drops) "count";
      m "link.self_s" (self Spans.link) "s";
      m "delay_line.packets" (calls Spans.delay_line) "count";
      m "delay_line.self_s" (self Spans.delay_line) "s";
      m "receiver.packets" (calls Spans.receiver) "count";
      m "receiver.self_s" (self Spans.receiver) "s";
      m "ack.pcc.calls" (calls Spans.ack_pcc) "count";
      m "ack.pcc.self_s" (self Spans.ack_pcc) "s";
      m "core.mis" (float_of_int !mis) "count";
      m "ack.tcp.calls" (calls Spans.ack_tcp) "count";
      m "ack.tcp.self_s" (self Spans.ack_tcp) "s";
      m "sender.packets" (calls Spans.sender_out) "count";
      m "sender.useful_frac"
        (let s = calls Spans.sender_out in
         if s > 0. then float_of_int !delivered /. s else 0.)
        "frac";
      m "scenario.build_s" (sum (List.map (fun x -> x.build_s) ut)) "s";
      m "executor.domains" (float_of_int w.domains) "count";
      m "executor.task_p50_s" (median task_times) "s";
      m "executor.task_max_s" (List.fold_left Float.max 0. task_times) "s";
      m "executor.idle_frac"
        (1. -. (sum task_times /. (float_of_int w.domains *. u.wall_s)))
        "frac";
      m "gc.minor_words" u.minor_words "words";
      m "gc.words_per_event"
        (if events > 0 then u.minor_words /. float_of_int events else 0.)
        "words";
      m "gc.promoted_words" u.promoted_words "words";
      m "gc.major_collections" (float_of_int u.major_collections) "count";
      m "gc.top_heap_mb" top_heap_mb "MB";
      m "trace.overhead_frac" ((t.wall_s /. u.wall_s) -. 1.) "frac";
      m "trace.parity_mismatches" (float_of_int mismatched) "count";
    ]
  in
  let attempted = 3 * List.length tasks in
  let failed = List.length errors in
  {
    lines =
      [
        Printf.sprintf "perfbench %s (traced): %s" w.name w.why;
        Printf.sprintf "host: %s" (Host.facts ~seed);
        Printf.sprintf "untraced: wall %.4f s, setup %.4f s, cpu %.4f s" u.wall_s
          (sum (List.map (fun x -> x.setup_s) ut))
          u.cpu_s;
        Printf.sprintf "traced:   wall %.4f s" t.wall_s;
        Printf.sprintf "parity: untraced events=%d digest=%s | traced events=%d \
                        digest=%s | %s"
          (total_events ou) (combined ou) events (combined ot)
          (if mismatched = 0 then "identical"
           else Printf.sprintf "DIFFERENT in %d tasks" mismatched);
      ]
      @ metric_lines metrics
      @ [ "per task: events, untraced s, traced s" ]
      @ List.map2
          (fun a b ->
            match (a.result, b.result) with
            | Ok (o, x, _), Ok (_, y, _) ->
              Printf.sprintf "  %-32s %9d %9.4f %9.4f" a.task.label o.events
                x.task_s y.task_s
            | _ -> Printf.sprintf "  %-32s failed" a.task.label)
          u.results t.results
      @ List.map (fun e -> "  FAILED " ^ e) errors;
    attempted;
    failed;
    metrics;
  }

(* The digests module for the default seed and size, printed from an
   untraced pass over every workload. *)
let print_digests () =
  print_string
    "(* Output digests of every task at the default seed and size: per-flow\n\
    \   goodput bytes, FCT float bits and the engine event count.\n\
    \   Regenerate with [main.exe --print-digests]. *)\n\n\
     let all =\n  [\n";
  List.iter
    (fun w ->
      let tasks = tasks_for w ~seed:default_seed default_size in
      let pass = with_pool w (fun pool -> run_pass ?pool ~traced:false tasks) in
      List.iter
        (fun r ->
          match r.result with
          | Ok (o, _, _) ->
            Printf.printf "    (%S, %S);\n" r.task.label (digest r.task o)
          | Error e -> failwith (r.task.label ^ ": " ^ e))
        pass.results)
    all;
  print_string "  ]\n"
