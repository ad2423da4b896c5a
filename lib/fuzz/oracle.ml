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
(* Wrapper differentials: scenarios expressible through the flat
   [Path] / [Multihop] builders must run bit-identically through them
   (the wrappers preserve Topology's RNG split order by construction —
   PR 3's contract — so any divergence is a wrapper bug). *)

let path_applicable (s : Scenario.t) =
  s.Scenario.cross = []
  && s.Scenario.dynamics = None
  && (match s.Scenario.links with
     | [ l ] -> l.Scenario.src = 0 && l.Scenario.dst = 1
     | _ -> false)
  && List.for_all
       (fun (f : Scenario.flow) ->
         f.Scenario.route = [ 0; 1 ]
         && f.Scenario.rev_route = None
         && f.Scenario.rev_lossy)
       s.Scenario.flows

let rec consecutive_from a = function
  | [] -> true
  | x :: rest -> x = a && consecutive_from (a + 1) rest

let multihop_applicable (s : Scenario.t) =
  s.Scenario.cross = []
  && s.Scenario.dynamics = None
  && List.for_all2
       (fun i (l : Scenario.link) ->
         l.Scenario.src = i
         && l.Scenario.dst = i + 1
         && l.Scenario.queue = Topology.Droptail
         && l.Scenario.jitter = 0.)
       (List.init (List.length s.Scenario.links) Fun.id)
       s.Scenario.links
  && List.for_all
       (fun (f : Scenario.flow) ->
         f.Scenario.rev_route = None
         && (not f.Scenario.rev_lossy)
         && f.Scenario.stop_at = None
         && f.Scenario.extra_rtt = 0.
         && (match f.Scenario.route with
            | a :: _ :: _ -> consecutive_from a f.Scenario.route
            | _ -> false))
       s.Scenario.flows

let transport_exn (f : Scenario.flow) =
  match Transport.of_name f.Scenario.transport with
  | Ok t -> t
  | Error m -> invalid_arg m

(* Scenario.build's first RNG split is the topology stream; replaying
   just that split gives the wrapper the identical stream. *)
let scenario_topo_rng (s : Scenario.t) =
  let rng = Rng.create s.Scenario.seed in
  Rng.split rng

let wrapper_digest (s : Scenario.t) ~name build_fn =
  let engine = Engine.create () in
  let violations = ref [] in
  match
    guarded_run engine ~duration:s.Scenario.duration ~violations (fun () ->
        build_fn engine)
  with
  | Error f ->
    Error
      {
        oracle = name;
        detail = "wrapper run failed: " ^ f.oracle ^ ": " ^ f.detail;
      }
  | Ok topo -> (
    match first_violation !violations with
    | Some f ->
      Error
        {
          oracle = name;
          detail = "wrapper run violated " ^ f.oracle ^ ": " ^ f.detail;
        }
    | None -> Ok (digest engine topo))

(* The wrapper runs replicate [Scenario.build]'s fault injection (the
   applicability predicates already exclude cross traffic and dynamics,
   whose RNG splits therefore never get consumed in the base run
   either... they do — build splits unconditionally — but only the
   topology stream feeds simulated events, so the digests still agree). *)
let run_path (s : Scenario.t) engine =
  let topo_rng = scenario_topo_rng s in
  let l = List.hd s.Scenario.links in
  let flows =
    List.map
      (fun (f : Scenario.flow) ->
        Path.flow ~start_at:f.Scenario.start_at ?stop_at:f.Scenario.stop_at
          ?size:f.Scenario.size ~extra_rtt:f.Scenario.extra_rtt
          (transport_exn f))
      s.Scenario.flows
  in
  let path =
    Path.build engine ~rng:topo_rng ~bandwidth:l.Scenario.bandwidth
      ~rtt:(2. *. l.Scenario.delay) ~buffer:l.Scenario.buffer
      ~queue:l.Scenario.queue ~loss:l.Scenario.loss ~jitter:l.Scenario.jitter
      ~flows ()
  in
  let topo = Path.topology path in
  if s.Scenario.faults <> [] then
    Fault.inject (Fault.target_of_topology topo) s.Scenario.faults;
  (topo, fun () -> ())

let run_multihop (s : Scenario.t) engine =
  let topo_rng = scenario_topo_rng s in
  let hops =
    List.map
      (fun (l : Scenario.link) ->
        Multihop.hop ~delay:l.Scenario.delay ~buffer:l.Scenario.buffer
          ~loss:l.Scenario.loss ~bandwidth:l.Scenario.bandwidth ())
      s.Scenario.links
  in
  let flows =
    List.map
      (fun (f : Scenario.flow) ->
        let enter = List.hd f.Scenario.route in
        let exit = List.nth f.Scenario.route (List.length f.Scenario.route - 1) in
        Multihop.flow ~start_at:f.Scenario.start_at ?size:f.Scenario.size ~enter
          ~exit (transport_exn f))
      s.Scenario.flows
  in
  let mh = Multihop.build engine ~rng:topo_rng ~hops ~flows () in
  let topo = Multihop.topology mh in
  if s.Scenario.faults <> [] then
    Fault.inject (Fault.target_of_topology topo) s.Scenario.faults;
  (topo, fun () -> ())

let wrapper_check (s : Scenario.t) (base : stats) =
  let compare_digest name build_fn =
    match wrapper_digest s ~name build_fn with
    | Error f -> Some f
    | Ok d when d <> base.digest ->
      Some
        { oracle = name; detail = "wrapper digest differs from topology run" }
    | Ok _ -> None
    | exception exn -> Some { oracle = name; detail = Printexc.to_string exn }
  in
  if path_applicable s then compare_digest "wrapper-path" (run_path s)
  else if multihop_applicable s then
    compare_digest "wrapper-multihop" (run_multihop s)
  else None

(* --------------------------------------------------------------- *)
(* Deep differentials: cost real wall-clock (domain spawns, temp-file
   IO), so the fuzz loop only enables them on a subset of runs. *)

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

let checkpoint_check (s : Scenario.t) (base : stats) =
  let path = Filename.temp_file "pcc-fuzz" ".ckpt" in
  let fail detail = Some { oracle = "checkpoint"; detail } in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let names = [ "fuzz-digest" ] in
      let meta =
        { Checkpoint.seed = s.Scenario.seed; scale = s.Scenario.duration; names }
      in
      match
        let t = Checkpoint.create ~path meta in
        Checkpoint.append t ~name:"fuzz-digest" ~output:base.digest;
        Checkpoint.close t;
        Checkpoint.load ~path
      with
      | exception exn -> fail ("roundtrip raised " ^ Printexc.to_string exn)
      | meta', records ->
        if
          not
            (Checkpoint.matches meta' ~seed:s.Scenario.seed
               ~scale:s.Scenario.duration ~names)
        then fail "reloaded meta does not match the sweep"
        else if records <> [ ("fuzz-digest", base.digest) ] then
          fail "digest did not survive the checkpoint roundtrip"
        else None)

let deep_checks s base =
  match supervisor_check s base with
  | Some f -> Some f
  | None -> checkpoint_check s base

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
          | Ok _ -> (
            match wrapper_check s base with
            | Some f -> Some f
            | None -> if deep then deep_checks s base else None)))))
