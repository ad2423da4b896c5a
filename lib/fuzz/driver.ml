open Pcc_sim
open Pcc_scenario

type failure_report = {
  run : int;
  failure : Oracle.failure;
  shrunk : Scenario.t;
  shrink_checks : int;
  repro_path : string option;
}

type summary = { runs : int; failed : failure_report list }

let deep_oracle = function "supervisor-jobs" -> true | _ -> false

let fuzz ?(synth = fun _ -> None) ?(deep_every = 8) ?(shrink_budget = 300)
    ?corpus_dir ?menu ?(log = fun _ -> ()) ~runs ~seed () =
  let failed = ref [] in
  for run = 0 to runs - 1 do
    let run_seed = Pcc_experiments.Runner.derive_seed ~master:seed ~index:run in
    let rng = Rng.create run_seed in
    let scenario = Scenario.generate ?menu ~rng () in
    let deep = deep_every > 0 && run mod deep_every = 0 in
    match Oracle.test ~synth ~deep scenario with
    | None -> ()
    | Some failure ->
      log
        (Printf.sprintf "run %d: %s FAILED %s: %s" run
           (Scenario.describe scenario) failure.Oracle.oracle
           failure.Oracle.detail);
      let deep_shrink = deep_oracle failure.Oracle.oracle in
      let shrunk, shrink_checks =
        Shrink.minimize ~budget:shrink_budget
          ~check:(Oracle.test ~synth ~deep:deep_shrink)
          ~oracle:failure.Oracle.oracle scenario
      in
      log
        (Printf.sprintf "run %d: shrunk to %s (%d checks, size %d -> %d)" run
           (Scenario.describe shrunk) shrink_checks (Shrink.size scenario)
           (Shrink.size shrunk));
      (* Re-derive the detail from the minimized scenario so the repro's
         header matches its own payload. *)
      let final_detail =
        match Oracle.test ~synth ~deep:deep_shrink shrunk with
        | Some f when f.Oracle.oracle = failure.Oracle.oracle ->
          f.Oracle.detail
        | _ -> failure.Oracle.detail
      in
      let repro_path =
        Option.map
          (fun dir ->
            let path =
              Corpus.save ~dir
                {
                  Corpus.oracle = failure.Oracle.oracle;
                  detail = final_detail;
                  scenario = shrunk;
                }
            in
            log (Printf.sprintf "run %d: repro written to %s" run path);
            path)
          corpus_dir
      in
      failed := { run; failure; shrunk; shrink_checks; repro_path } :: !failed
  done;
  let failed = List.rev !failed in
  log
    (Printf.sprintf "fuzz: %d/%d runs passed, %d failure%s"
       (runs - List.length failed) runs (List.length failed)
       (if List.length failed = 1 then "" else "s"));
  { runs; failed }

let replay ?(synth = fun _ -> None) path =
  let r = Corpus.load path in
  match Oracle.test ~synth ~deep:true r.Corpus.scenario with
  | None -> Ok ()
  | Some f -> Error f

let replay_dir ?synth ?(log = fun _ -> ()) dir =
  List.filter_map
    (fun (path, (r : Corpus.repro)) ->
      match Oracle.test ?synth ~deep:true r.Corpus.scenario with
      | None ->
        log (Printf.sprintf "replay %s: ok (was %s)" path r.Corpus.oracle);
        None
      | Some f ->
        log
          (Printf.sprintf "replay %s: FAILED %s: %s" path f.Oracle.oracle
             f.Oracle.detail);
        Some (path, f))
    (Corpus.load_dir dir)

(* ---------------------------------------------------------------- *)

let synth_of_spec spec =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "bad PCC_FUZZ_SYNTH %S (want 'always' or <field><op><n>, e.g. \
          'flows>=2')"
         spec)
  in
  if spec = "always" then fun _ -> Some "synthetic failure: always"
  else begin
    let field_of s =
      match s with
      | "flows" -> fun (x : Scenario.t) -> List.length x.Scenario.flows
      | "links" -> fun (x : Scenario.t) -> List.length x.Scenario.links
      | "faults" -> fun (x : Scenario.t) -> List.length x.Scenario.faults
      | "cross" -> fun (x : Scenario.t) -> List.length x.Scenario.cross
      | _ -> fail ()
    in
    let split op =
      match String.index_opt spec op.[0] with
      | Some i
        when i + String.length op <= String.length spec
             && String.sub spec i (String.length op) = op ->
        Some
          ( String.sub spec 0 i,
            String.sub spec
              (i + String.length op)
              (String.length spec - i - String.length op) )
      | _ -> None
    in
    let field, cmp, n =
      match (split ">=", split "<=", split "=") with
      | Some (f, n), _, _ -> (f, ( >= ), n)
      | None, Some (f, n), _ -> (f, ( <= ), n)
      | None, None, Some (f, n) -> (f, ( = ), n)
      | None, None, None -> fail ()
    in
    let n = match int_of_string_opt n with Some n -> n | None -> fail () in
    let get = field_of field in
    fun s ->
      let v = get s in
      if cmp v n then
        Some (Printf.sprintf "synthetic failure: %s (%s=%d)" spec field v)
      else None
  end

let synth_of_env () =
  match Sys.getenv_opt "PCC_FUZZ_SYNTH" with
  | None | Some "" -> None
  | Some spec -> Some (synth_of_spec spec)
