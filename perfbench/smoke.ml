(* Smoke test: every workload once at a tiny size, untraced and traced. No
   task may fail, the traced pass must match the untraced one, and every
   metric BENCHMARK.json names must be reported, finite, with its unit. *)

open Perfbench

let find_from s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* The string value of ["key": "value"] on a line, if any. *)
let field line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  match find_from line pat 0 with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    Option.map
      (fun stop -> String.sub line start (stop - start))
      (String.index_from_opt line start '"')

(* (section, name, unit) for every object in BENCHMARK.json, which holds
   one workload or metric per line. *)
let entries json =
  let section = ref "" in
  List.filter_map
    (fun line ->
      List.iter
        (fun s ->
          if find_from line (Printf.sprintf "\"%s\":" s) 0 <> None then
            section := s)
        [ "workloads"; "end_to_end"; "per_layer" ];
      match field line "name" with
      | Some name -> Some (!section, name, field line "unit")
      | None -> None)
    (String.split_on_char '\n' json)

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        prerr_endline ("FAIL " ^ msg)
      end)
    fmt

let check_report ~what ~wanted (r : Bench.report) =
  expect (r.Bench.failed = 0) "%s: %d failed tasks" what r.Bench.failed;
  expect (r.Bench.attempted > 0) "%s: nothing attempted" what;
  List.iter
    (fun (_, name, unit) ->
      match List.find_opt (fun m -> m.Bench.name = name) r.Bench.metrics with
      | None -> expect false "%s: metric %s missing" what name
      | Some m ->
        expect (Float.is_finite m.Bench.value) "%s: %s = %g" what name
          m.Bench.value;
        expect
          (m.Bench.unit <> "" && Some m.Bench.unit = unit)
          "%s: %s has unit %S" what name m.Bench.unit)
    wanted;
  let json = Bench.json_of_report r in
  expect (String.index_opt json '\n' = None) "%s: JSON spans lines" what

let () =
  let entries = entries (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let section s = List.filter (fun (x, _, _) -> x = s) entries in
  let names s = List.map (fun (_, n, _) -> n) (section s) in
  expect
    (names "workloads" = List.map (fun w -> w.Workloads.name) Workloads.all)
    "BENCHMARK.json workloads differ from Workloads.all";
  expect (section "end_to_end" <> [] && section "per_layer" <> [])
    "BENCHMARK.json lists no metrics";
  List.iter
    (fun w ->
      let size = Workloads.tiny_size in
      check_report ~what:(w.Workloads.name ^ " untraced")
        ~wanted:(section "end_to_end")
        (Bench.measure w ~seed:7 ~seconds:0. ~size);
      let r = Bench.traced w ~seed:7 ~size in
      check_report ~what:(w.Workloads.name ^ " traced")
        ~wanted:(section "per_layer") r;
      expect
        (List.exists
           (fun m ->
             m.Bench.name = "trace.parity_mismatches" && m.Bench.value = 0.)
           r.Bench.metrics)
        "%s: traced and untraced passes differ" w.Workloads.name)
    Workloads.all;
  if !failures > 0 then exit 1;
  print_endline "perfbench smoke: ok"
