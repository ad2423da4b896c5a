(* The benchmark's workloads: fixed batches of simulation tasks, what each
   task builds, and how its output is checked. *)

open Pcc_sim
open Pcc_scenario

type solo = {
  spec : Transport.spec;
  bandwidth : float;
  rtt : float;
  buffer : int;
  loss : float;
  rev_loss : float;
}

(* One flow over one bottleneck (the dumbbell of [Exp_common]), or the
   [Exp_manyflow] fan-in of [n] sized PCC flows. *)
type shape = Solo of solo | Fanin of { n : int; bandwidth : float; rtt : float }

type task = { label : string; seed : int; shape : shape; until : float }

(* How much simulated work a batch holds: simulated seconds per task, and
   the fan-in's flow count. [default_size] is what the benchmark measures
   and what the committed digests describe; [tiny_size] is for the smoke
   test. *)
type size = { longhaul_until : float; fanin_flows : int; sweep_until : float }

(* The Fig. 6 tasks run 25 RTTs rather than Fig. 6's 60·RTT warm-up: by
   then Hybla's overshoot is deep in loss recovery, and a pass is short
   enough for a run to hold a dozen of them. The Fig. 7 tasks run its 3 s
   warm-up plus 2 s. *)
let default_size =
  { longhaul_until = 25. *. 0.8; fanin_flows = 3000; sweep_until = 5. }

let tiny_size = { longhaul_until = 2.; fanin_flows = 100; sweep_until = 0.5 }

type workload = {
  name : string;
  why : string;
  domains : int;  (* Runner pool size; 1 runs the tasks inline *)
  master : int option;
      (* A fixed master seed for the loss patterns, used instead of --seed *)
  tasks : master:int -> size -> task list;
}

let spec_of name =
  match Transport.of_name name with
  | Ok s -> s
  | Error e -> invalid_arg e

let is_pcc task =
  match task.shape with
  | Solo { spec = Transport.Pcc _; _ } | Fanin _ -> true
  | Solo _ -> false

let capacity task =
  match task.shape with Solo s -> s.bandwidth | Fanin f -> f.bandwidth

(* Task seeds are a pure function of the master seed and the task's
   position, so a batch is the same work whichever domain runs which
   task. *)
let numbered ~master l =
  List.mapi
    (fun index (label, shape, until) ->
      {
        label;
        seed = Pcc_experiments.Runner.derive_seed ~master ~index;
        shape;
        until;
      })
    l

let solo_grid ~master ~prefix ~until ~outer ~names make =
  numbered ~master
    (List.concat_map
       (fun x ->
         List.map
           (fun name ->
             let label, solo = make x name in
             (Printf.sprintf "%s/%s/%s" prefix name label, Solo solo, until))
           names)
       outer)

let longhaul ~master size =
  solo_grid ~master ~prefix:"longhaul" ~until:size.longhaul_until
    ~outer:[ 75_000; 375_000; 1_000_000 ]
    ~names:[ "pcc"; "hybla"; "cubic" ]
    (fun buffer name ->
      ( Printf.sprintf "buf=%d" buffer,
        {
          spec = spec_of name;
          bandwidth = Units.mbps 42.;
          rtt = 0.8;
          buffer;
          loss = 0.0074;
          rev_loss = 0.;
        } ))

(* The [Exp_manyflow] fan-in, run to its own horizon: every flow could
   have finished eight times over. *)
let fanin ~master size =
  let n = size.fanin_flows in
  let bandwidth = Pcc_experiments.Exp_manyflow.default_bandwidth
  and rtt = Pcc_experiments.Exp_manyflow.default_rtt in
  let ideal = float_of_int (n * 200_000 * 8) /. bandwidth in
  numbered ~master
    [
      ( Printf.sprintf "fanin/n=%d" n,
        Fanin { n; bandwidth; rtt },
        10. +. (8. *. ideal) );
    ]

let sweep ~master size =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  solo_grid ~master ~prefix:"sweep" ~until:size.sweep_until
    ~outer:[ 0.0; 0.001; 0.005; 0.01; 0.02; 0.03; 0.04; 0.05; 0.06 ]
    ~names:[ "pcc"; "pcc-vivace"; "cubic"; "illinois" ]
    (fun loss name ->
      ( Printf.sprintf "loss=%g" loss,
        {
          spec = spec_of name;
          bandwidth;
          rtt;
          buffer = Units.bdp_bytes ~rate:bandwidth ~rtt;
          loss;
          rev_loss = loss;
        } ))

(* How much work a lossy single-flow task does is a chaotic function of
   its loss pattern: across master seeds 1-6 the loss sweep's event count
   ranged over 1.74-2.13 M, and Hybla on the Fig. 6 path either settles or
   overshoots its window by thousands of packets (over 50 simulated
   seconds, at 375 KB for 9 of 20 seeds, costing 1.0-3.2 s instead of
   ~0.03 s). A wall time that follows
   --seed there measures the seed, not the simulator, so those two
   workloads draw their loss patterns from fixed master seeds; master 20
   is one at which Hybla at 375 KB overshoots, which keeps Tcp_sender's
   loss detection in the batch. The fan-in has no random loss and its
   work barely moves with the seed, so it follows --seed. *)
let all =
  [
    {
      name = "longhaul-loss";
      why =
        "Fig. 6 satellite path (42 Mbps, 800 ms, 0.74% loss): SACK loss \
         detection does nearly all the work, with few pending events";
      domains = 1;
      master = Some 20;
      tasks = longhaul;
    };
    {
      name = "fanin-many";
      why =
        "thousands of sized PCC flows into one 10 Gbps bottleneck: scheduler, \
         pools, topology build and GC carry per-flow state";
      domains = 1;
      master = None;
      tasks = fanin;
    };
    {
      name = "loss-sweep";
      why =
        "Fig. 7 grid of 36 independent tasks: the per-packet fast path; the \
         traced run adds the experiments executor on a two-domain Runner pool";
      domains = 2;
      master = Some 42;
      tasks = sweep;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Outcomes *)

type outcome = {
  goodput : int array;  (* bytes, per flow *)
  fct : float option array;  (* per flow, sized flows only *)
  events : int;
}

let outcome_of engine (flows : Topology.built_flow array) =
  {
    goodput = Array.map Topology.goodput_bytes flows;
    fct = Array.map (fun (f : Topology.built_flow) -> f.Topology.fct) flows;
    events = Engine.executed engine;
  }

(* Covers per-flow goodput bytes, FCT float bits and the event count. *)
let digest task o =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s events=%d" task.label o.events;
  Array.iteri
    (fun i g ->
      Printf.bprintf b " %d:%d:%s" i g
        (match o.fct.(i) with Some v -> Printf.sprintf "%h" v | None -> "-"))
    o.goodput;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Invariants that hold at every seed: every flow moves data, goodput
   stays at or below the bottleneck capacity, and at least 90% of the
   fan-in's flows complete. *)
let check task o =
  let total = Array.fold_left ( + ) 0 o.goodput in
  let bits = float_of_int (total * 8) in
  if Array.exists (fun g -> g <= 0) o.goodput then
    Error (task.label ^ ": a flow delivered nothing")
  else if bits > capacity task *. task.until then
    Error
      (Printf.sprintf "%s: goodput %.0f bits exceeds capacity %.0f" task.label
         bits
         (capacity task *. task.until))
  else
    match task.shape with
    | Fanin { n; _ } ->
      let done_ = Array.fold_left (fun a f -> if f = None then a else a + 1) 0 o.fct in
      if done_ * 10 < n * 9 then
        Error (Printf.sprintf "%s: only %d/%d flows completed" task.label done_ n)
      else Ok ()
    | Solo _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* The untraced task: the library's own topology builder. *)

type timing = {
  setup_s : float;  (* engine, RNG and topology creation *)
  build_s : float;  (* the Topology.build part of setup_s *)
  task_s : float;  (* setup plus the simulation *)
}

let build_topology engine ~rng task =
  match task.shape with
  | Solo s ->
    Topology.build engine ~rng
      ~links:
        [
          Topology.link ~name:"bottleneck" ~delay:(s.rtt /. 2.) ~buffer:s.buffer
            ~loss:s.loss ~src:0 ~dst:1 ~bandwidth:s.bandwidth ();
        ]
      ~rev_loss:s.rev_loss
      ~flows:[ Topology.flow ~route:[ 0; 1 ] s.spec ]
      ()
  | Fanin f ->
    Pcc_experiments.Exp_manyflow.topology engine ~rng ~n:f.n ~bandwidth:f.bandwidth ~rtt:f.rtt

let run_plain task =
  let t0 = Host.now () in
  let engine = Engine.create () in
  let rng = Rng.create task.seed in
  let t1 = Host.now () in
  let topo = build_topology engine ~rng task in
  let t2 = Host.now () in
  Engine.run ~until:task.until engine;
  let t3 = Host.now () in
  ( outcome_of engine (Topology.flows topo),
    { setup_s = t2 -. t0; build_s = t2 -. t1; task_s = t3 -. t0 } )
