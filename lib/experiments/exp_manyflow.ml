open Pcc_sim
open Pcc_scenario

(* Scheduler stress scenario: a large fan-in of PCC flows over one
   shared bottleneck. Unlike the paper experiments, the interesting
   output is not a protocol comparison but that the simulator sustains
   tens of thousands of concurrent flows — hundreds of thousands of
   pending timers — and stays deterministic while doing so. The table
   is pure simulation state (no wall-clock), so a fixed seed renders
   byte-identically at any job count. *)

type row = {
  flows : int;
  completed : int;
  goodput_mbps : float;  (** aggregate, over the last completion *)
  mean_fct : float;
  peak_pending : int;  (** high-water mark of queued events *)
  events : int;
}

let default_bandwidth = Units.gbps 10.
let default_rtt = 0.01
let flow_size = 200_000

(* Flow starts are staggered over half a second and RTTs spread over a
   small band so the event queue never degenerates into one synchronized
   burst — the population is what stresses the scheduler, not a single
   instant. Everything is a pure function of [n], so the scenario is
   deterministic for a fixed seed. *)
let topology engine ~rng ~n ~bandwidth ~rtt =
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let links =
    [
      Topology.link ~name:"fanin" ~delay:(rtt /. 2.) ~buffer:bdp ~src:0 ~dst:1
        ~bandwidth ();
    ]
  in
  let fn = float_of_int n in
  let flows =
    List.init n (fun i ->
        Topology.flow
          ~start_at:(0.5 *. float_of_int i /. fn)
          ~size:flow_size
          ~extra_rtt:(rtt *. float_of_int (i mod 64) /. 64.)
          ~route:[ 0; 1 ] (Transport.pcc ()))
  in
  Topology.build engine ~rng ~links ~flows ()

let round ~seed ~n ~bandwidth ~rtt =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo = topology engine ~rng ~n ~bandwidth ~rtt in
  let ideal =
    float_of_int (n * flow_size * 8) /. bandwidth
  in
  let horizon = 10. +. (8. *. ideal) in
  (* Sample the queue depth on a fixed grid: the samples are simulation
     events themselves, so the peak is deterministic. *)
  let peak = ref 0 in
  let samples = int_of_float (horizon /. 0.05) in
  for k = 0 to samples do
    Engine.post engine
      ~at:(0.05 *. float_of_int k)
      (fun () -> peak := max !peak (Engine.pending engine))
  done;
  Engine.run ~until:horizon engine;
  let flows = Topology.flows topo in
  let completed = ref 0 and fct_sum = ref 0. and last_done = ref 0. in
  let bytes = ref 0 in
  Array.iter
    (fun (f : Topology.built_flow) ->
      bytes := !bytes + Topology.goodput_bytes f;
      match f.Topology.fct with
      | Some fct ->
        incr completed;
        fct_sum := !fct_sum +. fct;
        last_done := Float.max !last_done (f.Topology.def.Topology.start_at +. fct)
      | None -> ())
    flows;
  let row =
    {
      flows = n;
      completed = !completed;
      goodput_mbps =
        (if !last_done > 0. then
           float_of_int (!bytes * 8) /. !last_done /. 1e6
         else 0.);
      mean_fct =
        (if !completed > 0 then !fct_sum /. float_of_int !completed else nan);
      peak_pending = !peak;
      events = Engine.executed engine;
    }
  in
  (* Invariants: the run must actually finish (not stall at the horizon
     with most transfers dangling), stay inside the physical capacity,
     and exhibit real concurrency — each active flow holds at least one
     pending timer, so the peak queue depth of a genuine many-flow run
     cannot be small. *)
  if row.completed * 10 < n * 9 then
    failwith
      (Printf.sprintf "manyflow: only %d/%d flows completed" row.completed n);
  if row.goodput_mbps > 1.02 *. bandwidth /. 1e6 then
    failwith
      (Printf.sprintf "manyflow: goodput %.1f Mbps exceeds capacity"
         row.goodput_mbps);
  if row.peak_pending < n / 4 then
    failwith
      (Printf.sprintf "manyflow: peak pending %d events for %d flows"
         row.peak_pending n);
  row

let flows_for_scale scale = max 50 (int_of_float ((10_000. *. scale) +. 0.5))

let tasks ?(scale = 1.) ?(seed = 42) ?flows () =
  let n = match flows with Some n -> n | None -> flows_for_scale scale in
  [
    Exp_common.task ~seed
      ~label:(Printf.sprintf "manyflow/n=%d" n)
      (fun () ->
        round ~seed ~n ~bandwidth:default_bandwidth ~rtt:default_rtt);
  ]

let run ?pool ?scale ?seed ?flows () =
  Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?flows ())
  |> Exp_common.present

let table rows =
  Exp_common.
    {
      title = "Many-flow fan-in (10 Gbps shared bottleneck; scheduler stress)";
      header =
        [ "flows"; "completed"; "Mbps"; "mean FCT s"; "peak pending"; "events" ];
      rows =
        List.map
          (fun r ->
            [
              string_of_int r.flows;
              string_of_int r.completed;
              mbps r.goodput_mbps;
              f2 r.mean_fct;
              string_of_int r.peak_pending;
              string_of_int r.events;
            ])
          rows;
      note =
        Some
          "Not a paper figure: scale proof for the timing-wheel scheduler \
           and pooled packet path. Output is simulation state only, so it \
           is byte-identical at any --jobs.";
    }
