open Pcc_sim
open Pcc_scenario
open Pcc_experiments

type failure = { oracle : string; detail : string }
type stats = { events : int; digest : string }

(* Event budget per run: generated scenarios stay well under a million
   events, so hitting this means the simulation ran away. *)
let max_events = 10_000_000

let digest engine topo =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i (f : Topology.built_flow) ->
      Buffer.add_string b
        (Printf.sprintf "f%d g=%d s=%d a=%d srtt=%h rate=%h fct=%s\n" i
           (Topology.goodput_bytes f)
           (f.Topology.sender.Pcc_net.Sender.sent_pkts ())
           (f.Topology.sender.Pcc_net.Sender.acked_bytes ())
           (f.Topology.sender.Pcc_net.Sender.srtt ())
           (f.Topology.sender.Pcc_net.Sender.rate_estimate ())
           (match f.Topology.fct with
           | None -> "-"
           | Some v -> Printf.sprintf "%h" v)))
    (Topology.flows topo);
  Buffer.add_string b
    (Printf.sprintf "events=%d now=%h" (Engine.executed engine)
       (Engine.now engine));
  Buffer.contents b

(* Post-run sweeps over sender/receiver counters: properties that must
   hold for every valid scenario, whatever the network did. *)
let semantic_failure engine (s : Scenario.t) topo =
  let fail oracle fmt = Printf.ksprintf (fun detail -> Some { oracle; detail }) fmt in
  let now = Engine.now engine in
  if now < 0. || now > s.Scenario.duration +. 1e-9 then
    fail "clock" "engine clock %.6f outside [0, %.2f]" now s.Scenario.duration
  else begin
    let flows = Topology.flows topo in
    let defs = Array.of_list s.Scenario.flows in
    let result = ref None in
    Array.iteri
      (fun i (f : Topology.built_flow) ->
        if !result = None then begin
          let sender = f.Topology.sender in
          let goodput = Topology.goodput_bytes f in
          let sent = sender.Pcc_net.Sender.sent_pkts () in
          let acked = sender.Pcc_net.Sender.acked_bytes () in
          let rate = sender.Pcc_net.Sender.rate_estimate () in
          let srtt = sender.Pcc_net.Sender.srtt () in
          let def = defs.(i) in
          if goodput > sent * Units.mss then
            result :=
              fail "conservation"
                "flow %d delivered %d bytes from only %d sent packets" i
                goodput sent
          else if acked > sent * Units.mss then
            result :=
              fail "conservation" "flow %d acked %d bytes from %d sent packets"
                i acked sent
          else if (not (Float.is_finite rate)) || rate < 0. then
            result := fail "rate" "flow %d rate estimate %h" i rate
          else if (not (Float.is_finite srtt)) || srtt < 0. then
            result := fail "rate" "flow %d srtt %h" i srtt
          else begin
            match (def.Scenario.size, f.Topology.fct) with
            | Some sz, _ when goodput > sz ->
              result :=
                fail "conservation" "flow %d delivered %d of a %d-byte transfer"
                  i goodput sz
            | Some sz, Some fct ->
              if fct <= 0. || fct > s.Scenario.duration then
                result := fail "fct" "flow %d fct %h outside (0, %.2f]" i fct
                    s.Scenario.duration
              else if goodput <> sz then
                result :=
                  fail "fct"
                    "flow %d completed (fct %.4f) but delivered %d of %d bytes"
                    i fct goodput sz
            | _ -> ()
          end
        end)
      flows;
    !result
  end

(* Run [f ()] (build + engine run) converting every failure mode of the
   simulation into a failure value. [violations] collects invariant
   sweeps. *)
let guarded_run engine ~duration ~violations build_fn =
  match build_fn () with
  | exception Invalid_argument m -> Error { oracle = "build"; detail = m }
  | exception exn ->
    Error { oracle = "build"; detail = Printexc.to_string exn }
  | (topo : Topology.t), (stop : unit -> unit) -> (
    let inv =
      Invariant.attach_topology
        ~on_violation:(fun v -> violations := v :: !violations)
        topo
    in
    let finish () =
      stop ();
      Invariant.check_now inv;
      Invariant.stop inv
    in
    match Engine.run ~until:duration ~max_events engine with
    | () ->
      finish ();
      Ok topo
    | exception Engine.Livelock { time; events; kind } ->
      Error
        {
          oracle = "livelock";
          detail =
            Printf.sprintf "%s at t=%.6f after %d events"
              (match kind with
              | Engine.Stall -> "stall"
              | Engine.Budget -> "event budget exhausted")
              time events;
        }
    | exception Engine.Event_error { time; exn } ->
      Error
        {
          oracle = "crash";
          detail = Printf.sprintf "t=%.6f %s" time (Printexc.to_string exn);
        }
    | exception exn -> Error { oracle = "crash"; detail = Printexc.to_string exn })

let first_violation violations =
  match List.rev violations with
  | [] -> None
  | v :: _ ->
    Some
      {
        oracle = "invariant:" ^ v.Invariant.check;
        detail = Printf.sprintf "t=%.6f %s" v.Invariant.time v.Invariant.detail;
      }

let run_once (s : Scenario.t) : (stats, failure) result =
  let engine = Engine.create () in
  let violations = ref [] in
  match
    guarded_run engine ~duration:s.Scenario.duration ~violations (fun () ->
        let built = Scenario.build engine s in
        (built.Scenario.topo, built.Scenario.stop))
  with
  | Error f -> Error f
  | Ok topo -> (
    match first_violation !violations with
    | Some f -> Error f
    | None -> (
      match semantic_failure engine s topo with
      | Some f -> Error f
      | None ->
        Ok { events = Engine.executed engine; digest = digest engine topo }))

(* --------------------------------------------------------------- *)
(* Deep differential: costs real wall-clock (domain spawns), so the fuzz
   loop only enables it on a subset of runs. *)

let supervisor_check (s : Scenario.t) (base : stats) =
  let digest_task () =
    match run_once s with
    | Ok st -> st.digest
    | Error f -> "fail:" ^ f.oracle ^ ":" ^ f.detail
  in
  let run_jobs jobs =
    let results, report =
      Runner.run (Runner.create ~jobs ())
        [
          {
            Runner.label = Printf.sprintf "fuzz-digest-j%d" jobs;
            seed = Some s.Scenario.seed;
            repro = None;
            run = digest_task;
          };
        ]
    in
    if Runner.failed report then Error (Runner.summary_line report)
    else
      match results with
      | [ Some d ] -> Ok d
      | _ -> Error "executor returned no result"
  in
  match (run_jobs 1, run_jobs 2) with
  | Error m, _ | _, Error m ->
    Some { oracle = "supervisor-jobs"; detail = "task failed: " ^ m }
  | Ok d1, Ok d2 ->
    if d1 <> base.digest then
      Some
        {
          oracle = "supervisor-jobs";
          detail = "jobs=1 digest differs from direct run";
        }
    else if d2 <> d1 then
      Some
        {
          oracle = "supervisor-jobs";
          detail = "jobs=2 digest differs from jobs=1";
        }
    else None

(* --------------------------------------------------------------- *)

let test ?(synth = fun _ -> None) ?(deep = true) (s : Scenario.t) =
  match run_once s with
  | Error f -> Some f
  | Ok base -> (
    match synth s with
    | Some detail -> Some { oracle = "synthetic"; detail }
    | None -> (
      (* Same-seed determinism: an independent second run must digest
         identically. *)
      match run_once s with
      | Error f ->
        Some
          {
            oracle = "determinism";
            detail = "second run failed: " ^ f.oracle ^ ": " ^ f.detail;
          }
      | Ok second when second.digest <> base.digest ->
        Some
          { oracle = "determinism"; detail = "same-seed digests differ" }
      | Ok _ -> (
        (* Serialization roundtrip, structurally and behaviourally. *)
        match Scenario.of_string (Scenario.to_string s) with
        | exception Persist.Corrupt m ->
          Some { oracle = "persist-roundtrip"; detail = "decode failed: " ^ m }
        | s' when not (Scenario.equal s s') ->
          Some
            {
              oracle = "persist-roundtrip";
              detail = "decoded scenario differs structurally";
            }
        | s' -> (
          match run_once s' with
          | Error f ->
            Some
              {
                oracle = "persist-replay";
                detail = "decoded run failed: " ^ f.oracle ^ ": " ^ f.detail;
              }
          | Ok replay when replay.digest <> base.digest ->
            Some
              {
                oracle = "persist-replay";
                detail = "decoded scenario runs to a different digest";
              }
          | Ok _ -> if deep then supervisor_check s base else None))))
