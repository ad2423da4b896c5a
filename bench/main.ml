(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus bechamel
   micro-benchmarks of the simulator's hot paths.

   Usage:
     dune exec bench/main.exe                 -- all experiments, default scale
     dune exec bench/main.exe -- --scale 1.0  -- paper-length runs
     dune exec bench/main.exe -- --only fig7,fig9
     dune exec bench/main.exe -- --jobs 4     -- fan out over 4 domains
     dune exec bench/main.exe -- --micro      -- bechamel micro-benchmarks
     dune exec bench/main.exe -- --controllers -- controller-family section
     dune exec bench/main.exe -- --list

   Experiment runs write a machine-readable BENCH_pcc.json (see --out and
   README.md for the schema). With --jobs N > 1 each experiment is also
   re-run sequentially to measure the speedup and to assert that the
   parallel output is byte-identical to the sequential one.

   Set PCC_DUMP_DIR=<dir> to also write the fig11/fig12 time series as
   CSVs for external plotting.                                              *)

open Pcc_experiments

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator's hot paths. *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let engine_bench () =
    (* Schedule-and-drain a small event cascade. *)
    let engine = Pcc_sim.Engine.create () in
    let n = ref 0 in
    for i = 1 to 100 do
      ignore
        (Pcc_sim.Engine.schedule engine
           ~at:(float_of_int i *. 1e-3)
           (fun () -> incr n))
    done;
    Pcc_sim.Engine.run engine
  in
  let engine_drain_bench () =
    (* A 10k-event drain: the steady-state run loop without callbacks
       scheduling more work, i.e. pure pop + dispatch cost. *)
    let engine = Pcc_sim.Engine.create () in
    let n = ref 0 in
    for i = 1 to 10_000 do
      ignore
        (Pcc_sim.Engine.schedule engine
           ~at:(float_of_int (i * 7919 mod 10_000) *. 1e-4)
           (fun () -> incr n))
    done;
    Pcc_sim.Engine.run engine
  in
  let heap_bench () =
    let h = Pcc_sim.Event_heap.create () in
    for i = 0 to 99 do
      ignore (Pcc_sim.Event_heap.push h ~time:(float_of_int (i * 7919 mod 100)) i)
    done;
    while Pcc_sim.Event_heap.pop h <> None do
      ()
    done
  in
  let heap_churn_bench () =
    (* Timer-wheel-like churn: push, cancel half (as rescheduled timers
       do), pop the survivors. Exercises the lazy-deletion path. *)
    let h = Pcc_sim.Event_heap.create () in
    let handles =
      Array.init 256 (fun i ->
          Pcc_sim.Event_heap.push h ~time:(float_of_int (i * 7919 mod 256)) i)
    in
    Array.iteri
      (fun i han -> if i land 1 = 0 then Pcc_sim.Event_heap.cancel han)
      handles;
    while Pcc_sim.Event_heap.pop h <> None do
      ()
    done
  in
  let rng = Pcc_sim.Rng.create 1 in
  let rng_bench () = ignore (Pcc_sim.Rng.float rng) in
  let utility = Pcc_core.Utility.safe () in
  let metrics =
    Pcc_core.Utility.
      {
        rate = 1e8;
        throughput = 9.5e7;
        loss = 0.01;
        samples = 500;
        avg_rtt = 0.03;
        prev_avg_rtt = 0.03;
        rtt_early = 0.03;
        rtt_late = 0.031;
        min_rtt = 0.03;
        rtt_samples = 500;
        prev_class = -1;
      }
  in
  let utility_bench () = ignore (utility.Pcc_core.Utility.eval metrics) in
  let sim_second_bench () =
    (* One simulated second of a PCC flow on a 20 Mbps link. *)
    let engine = Pcc_sim.Engine.create () in
    let rng = Pcc_sim.Rng.create 11 in
    let _topo =
      Pcc_scenario.Topology.dumbbell engine ~rng
        ~bandwidth:(Pcc_sim.Units.mbps 20.) ~rtt:0.02
        ~buffer:(Pcc_sim.Units.kib 64)
        ~flows:
          [
            Pcc_scenario.Topology.flow ~route:[ 0; 1 ]
              (Pcc_scenario.Transport.pcc ());
          ]
        ()
    in
    Pcc_sim.Engine.run ~until:1.0 engine
  in
  let scoreboard_bench () =
    (* A 5k-packet window with 500 holes, 450 of them resent and still
       young, then 1,000 SACKs above it, each followed by loss detection
       that finds nothing due. Setup is inside the run. *)
    let open Pcc_net in
    let sb = Scoreboard.create () in
    let ack seq =
      Packet.
        {
          acked_seq = seq;
          cum_ack = -1;
          recv_bytes = 0;
          data_sent_at = 0.;
          data_retx = false;
        }
    in
    for _ = 0 to 5_999 do
      match Scoreboard.fresh_seq sb with
      | Some seq -> Scoreboard.record_send sb seq ~now:0.
      | None -> ()
    done;
    for seq = 0 to 4_999 do
      if seq mod 10 <> 0 then ignore (Scoreboard.on_ack sb (ack seq))
    done;
    ignore (Scoreboard.detect_losses sb ~now:1.0 ~min_age:0.5);
    for _ = 1 to 450 do
      match Scoreboard.take_retx sb with
      | Some seq -> Scoreboard.record_send sb seq ~now:1.0
      | None -> ()
    done;
    for seq = 5_000 to 5_999 do
      ignore (Scoreboard.on_ack sb (ack seq));
      ignore (Scoreboard.detect_losses sb ~now:1.1 ~min_age:0.5)
    done
  in
  let tests =
    [
      Test.make ~name:"scoreboard: loss detection"
        (Staged.stage scoreboard_bench);
      Test.make ~name:"engine: 100-event cascade" (Staged.stage engine_bench);
      Test.make ~name:"engine: 10k-event drain" (Staged.stage engine_drain_bench);
      Test.make ~name:"event_heap: 100 push+pop" (Staged.stage heap_bench);
      Test.make ~name:"event_heap: 256 push+cancel+pop churn"
        (Staged.stage heap_churn_bench);
      Test.make ~name:"rng: one float" (Staged.stage rng_bench);
      Test.make ~name:"utility: one safe eval" (Staged.stage utility_bench);
      Test.make ~name:"pcc: 1 simulated second @20Mbps"
        (Staged.stage sim_second_bench);
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Printf.printf "\n== micro-benchmarks (bechamel, monotonic clock) ==\n";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-40s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    tests;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Scheduler micro-benchmarks (--sched): the heap and the timing wheel
   on the same synthetic workloads, at pending counts where their
   asymptotics separate, plus the two costs that dominate small
   simulations: creating the queue and a sparse pending set.
   Methodology: build the pending set, Gc.compact, then time only the
   steady-state loop; the heap and wheel variants are written out
   separately (no closure indirection) so each backend is measured at
   its real call cost. All loops use the allocation-free
   [pop_cb] path — the one the engine dispatch loop runs on.

   Absolute ratios are machine-dependent: the heap's sift loops are
   cache-miss-bound, so a CPU with an L3 large enough to hold a
   million-entry key array (hundreds of MB on big server parts) shows
   smaller wheel-vs-heap ratios than a desktop-class cache does. *)

module EH = Pcc_sim.Event_heap
module TW = Pcc_sim.Timing_wheel

type sched_record = {
  s_name : string;
  s_pending : int;
  s_ops : int;
  s_heap : float;  (* wall seconds, heap backend *)
  s_wheel : float;  (* wall seconds, wheel backend *)
}

let sched_fill_heap n =
  let h = EH.create () in
  for i = 0 to n - 1 do
    EH.push_unit h ~time:(float_of_int i *. 1e-5) i
  done;
  h

let sched_fill_wheel n =
  let w = TW.create ~dummy:0 ~dummy_arg:() () in
  for i = 0 to n - 1 do
    TW.push_unit w ~time:(float_of_int i *. 1e-5) i ()
  done;
  w

(* Timer churn: every pop reschedules 10 ms out, holding the pending
   count constant — the steady state of a simulation where each flow
   keeps one live timer. *)
let sched_churn_heap ~pending ~ops =
  let h = sched_fill_heap pending in
  let k tm v = EH.push_unit h ~time:(tm +. 0.01) v in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (EH.pop_cb h k)
  done;
  now_s () -. t0

let sched_churn_wheel ~pending ~ops =
  let w = sched_fill_wheel pending in
  let k tm v () = TW.push_unit w ~time:(tm +. 0.01) v () in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (TW.pop_cb w k)
  done;
  now_s () -. t0

(* Full drain of a large pending set, nothing rescheduled. *)
let sched_drain_heap ~pending =
  let h = sched_fill_heap pending in
  let sink _ _ = () in
  Gc.compact ();
  let t0 = now_s () in
  while EH.pop_cb h sink do
    ()
  done;
  now_s () -. t0

let sched_drain_wheel ~pending =
  let w = sched_fill_wheel pending in
  let sink _ _ () = () in
  Gc.compact ();
  let t0 = now_s () in
  while TW.pop_cb w sink do
    ()
  done;
  now_s () -. t0

(* Schedule/cancel mix: per iteration one pop, one timer armed, one
   timer armed and immediately cancelled — a retransmission-timer-heavy
   workload. Live count stays constant. *)
let sched_mix_heap ~pending ~iters =
  let h = EH.create () in
  for i = 0 to pending - 1 do
    ignore (EH.push h ~time:(float_of_int i *. 1e-5) i)
  done;
  let last = ref 0. in
  let k tm _ = last := tm in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to iters do
    ignore (EH.pop_cb h k);
    ignore (EH.push h ~time:(!last +. 0.01) 0);
    EH.cancel (EH.push h ~time:(!last +. 0.02) 0)
  done;
  now_s () -. t0

let sched_mix_wheel ~pending ~iters =
  let w = TW.create ~dummy:0 ~dummy_arg:() () in
  for i = 0 to pending - 1 do
    ignore (TW.push w ~time:(float_of_int i *. 1e-5) i ())
  done;
  let last = ref 0. in
  let k tm _ () = last := tm in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to iters do
    ignore (TW.pop_cb w k);
    ignore (TW.push w ~time:(!last +. 0.01) 0 ());
    TW.cancel (TW.push w ~time:(!last +. 0.02) 0 ())
  done;
  now_s () -. t0

(* A small hot set self-rescheduling at microsecond scale on top of a
   large cold pending mass parked far in the future: the incast /
   many-flow shape, and the heap's worst case (every push sifts through
   log2(pending) levels of cold keys). *)
let sched_burst_heap ~pending ~ops =
  let h = EH.create () in
  let rng = Pcc_sim.Rng.create 11 in
  for i = 0 to pending - 1 do
    EH.push_unit h ~time:(1000. +. Pcc_sim.Rng.uniform rng 0. 100.) i
  done;
  for i = 0 to 63 do
    EH.push_unit h ~time:(float_of_int i *. 1e-6) i
  done;
  let k tm v = EH.push_unit h ~time:(tm +. 5e-5) v in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (EH.pop_cb h k)
  done;
  now_s () -. t0

let sched_burst_wheel ~pending ~ops =
  let w = TW.create ~dummy:0 ~dummy_arg:() () in
  let rng = Pcc_sim.Rng.create 11 in
  for i = 0 to pending - 1 do
    TW.push_unit w ~time:(1000. +. Pcc_sim.Rng.uniform rng 0. 100.) i ()
  done;
  for i = 0 to 63 do
    TW.push_unit w ~time:(float_of_int i *. 1e-6) i ()
  done;
  let k tm v () = TW.push_unit w ~time:(tm +. 5e-5) v () in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (TW.pop_cb w k)
  done;
  now_s () -. t0

(* Creation: what a simulation pays for its queue before any event
   runs, which a grid of many short runs pays once per run. The wheel
   side is a whole [Engine.create]; the heap side is a bare heap. *)
let sched_create_heap ~ops =
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (Sys.opaque_identity (EH.create ()))
  done;
  now_s () -. t0

let sched_create_wheel ~ops =
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (Sys.opaque_identity (Pcc_sim.Engine.create ()))
  done;
  now_s () -. t0

let engine_create_bytes () =
  let before = Gc.allocated_bytes () in
  let e = Pcc_sim.Engine.create () in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity e);
  bytes

(* Sparse timers: a hundred self-rescheduling timers, each with its own
   horizon between 0.1 and 400 ms (log-spaced) — the pending set of a
   single-flow simulation (pacer, MI and RTO timers, packets in
   flight), where the queue's own footprint, not its asymptotics,
   decides the cost. *)
let sparse_horizon n v =
  1e-4 *. (4000. ** (float_of_int v /. float_of_int (n - 1)))

let sched_sparse_heap ~pending ~ops =
  let h = EH.create () in
  for v = 0 to pending - 1 do
    EH.push_unit h ~time:(sparse_horizon pending v) v
  done;
  let k tm v = EH.push_unit h ~time:(tm +. sparse_horizon pending v) v in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (EH.pop_cb h k)
  done;
  now_s () -. t0

let sched_sparse_wheel ~pending ~ops =
  let w = TW.create ~dummy:0 ~dummy_arg:() () in
  for v = 0 to pending - 1 do
    TW.push_unit w ~time:(sparse_horizon pending v) v ()
  done;
  let k tm v () = TW.push_unit w ~time:(tm +. sparse_horizon pending v) v () in
  Gc.compact ();
  let t0 = now_s () in
  for _ = 1 to ops do
    ignore (TW.pop_cb w k)
  done;
  now_s () -. t0

let sched_bench () =
  Printf.printf "\n== scheduler micro-bench (heap vs timing wheel) ==\n%!";
  let mk name pending ops heap wheel =
    let r =
      { s_name = name; s_pending = pending; s_ops = ops; s_heap = heap;
        s_wheel = wheel }
    in
    Printf.printf
      "%-10s %9d pending %9d ops   heap %6.2fs (%5.1fM op/s)   wheel %6.2fs \
       (%5.1fM op/s)   wheel/heap %.2fx\n%!"
      r.s_name r.s_pending r.s_ops r.s_heap
      (float_of_int r.s_ops /. r.s_heap /. 1e6)
      r.s_wheel
      (float_of_int r.s_ops /. r.s_wheel /. 1e6)
      (r.s_heap /. r.s_wheel);
    r
  in
  (* Sequential lets, not a list literal: element evaluation order in a
     literal is unspecified, and each benchmark should print as it
     finishes, top to bottom. Heap runs before wheel for the same
     reason. *)
  let churn_small =
    let p = 10_000 and ops = 2_000_000 in
    let heap = sched_churn_heap ~pending:p ~ops in
    mk "churn-10k" p ops heap (sched_churn_wheel ~pending:p ~ops)
  in
  let churn =
    let p = 1_000_000 and ops = 2_000_000 in
    let heap = sched_churn_heap ~pending:p ~ops in
    mk "churn-1M" p ops heap (sched_churn_wheel ~pending:p ~ops)
  in
  let drain =
    let p = 1_000_000 in
    let heap = sched_drain_heap ~pending:p in
    mk "drain-1M" p p heap (sched_drain_wheel ~pending:p)
  in
  let mix =
    let p = 1_000_000 and iters = 500_000 in
    let heap = sched_mix_heap ~pending:p ~iters in
    mk "mix-1M" p (4 * iters) heap (sched_mix_wheel ~pending:p ~iters)
  in
  let burst =
    let p = 1_000_000 and ops = 5_000_000 in
    let heap = sched_burst_heap ~pending:p ~ops in
    mk "burst-1M" p ops heap (sched_burst_wheel ~pending:p ~ops)
  in
  let create =
    let ops = 2_000 in
    let heap = sched_create_heap ~ops in
    let r = mk "create" 0 ops heap (sched_create_wheel ~ops) in
    Printf.printf "%-10s Engine.create: %.1f us, %.0f bytes\n%!" ""
      (r.s_wheel /. float_of_int ops *. 1e6)
      (engine_create_bytes ());
    r
  in
  let sparse =
    let p = 100 and ops = 5_000_000 in
    let heap = sched_sparse_heap ~pending:p ~ops in
    mk "sparse-100" p ops heap (sched_sparse_wheel ~pending:p ~ops)
  in
  [ churn_small; churn; drain; mix; burst; create; sparse ]

(* ------------------------------------------------------------------ *)
(* Controller-family bench (--controllers): every rate controller solo
   on the same 30 Mbps bottleneck for a fixed simulated window, with a
   trace collector installed to count the control plane's work —
   gradient steps (Vivace-family decisions), utility-class switches
   (Proteus), and the mean per-MI utility. Wall time and engine events
   make the section double as a perf gate over the controller hot
   paths: a controller that stops deciding (zero MIs or zero gradient
   steps) fails scripts/check_bench.sh even if the simulation still
   moves packets. *)

type controller_bench_record = {
  c_name : string;
  c_wall : float;
  c_events : int;
  c_goodput : float;  (* bits/s over the whole run *)
  c_mis : int;  (* monitor intervals completed *)
  c_mean_utility : float;
  c_gradient_steps : int;
  c_utility_switches : int;
}

let controller_bench_duration = 20.

let controller_bench_names =
  [
    "pcc";
    "pcc-vivace";
    "pcc-proteus";
    "pcc-proteus-scavenger";
    "pcc-proteus-hybrid";
  ]

let controller_bench ~seed =
  let open Pcc_scenario in
  Printf.printf
    "\n== controller family (solo 30 Mbps bottleneck, %.0f simulated s) ==\n%!"
    controller_bench_duration;
  List.map
    (fun name ->
      let spec =
        match Transport.of_name name with
        | Ok s -> s
        | Error m -> failwith ("--controllers: " ^ m)
      in
      (* A private collector per run: counts must not bleed across
         controllers (or into a --trace collector). *)
      let collector = Pcc_trace.Collector.create ~capacity:(1 lsl 19) () in
      Pcc_trace.Collector.install collector;
      let engine = Pcc_sim.Engine.create () in
      let rng = Pcc_sim.Rng.create seed in
      let bw = Pcc_sim.Units.mbps 30. in
      let rtt = 0.03 in
      let topo =
        Topology.dumbbell engine ~rng ~bandwidth:bw ~rtt
          ~buffer:(Pcc_sim.Units.bdp_bytes ~rate:bw ~rtt)
          ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
          ()
      in
      let e0 = Pcc_sim.Engine.total_executed () in
      Gc.compact ();
      let t0 = now_s () in
      Pcc_sim.Engine.run ~until:controller_bench_duration engine;
      let wall = now_s () -. t0 in
      let events = Pcc_sim.Engine.total_executed () - e0 in
      Pcc_trace.Collector.uninstall ();
      let goodput =
        float_of_int (Topology.goodput_bytes (Topology.flows topo).(0) * 8)
        /. controller_bench_duration
      in
      let mis = ref 0 in
      let usum = ref 0. in
      let grads = ref 0 in
      let switches = ref 0 in
      Array.iter
        (fun (e : Pcc_trace.Event.record) ->
          match e.kind with
          | Pcc_trace.Event.Mi_end ->
            incr mis;
            usum := !usum +. e.a
          | Pcc_trace.Event.Gradient_step -> incr grads
          | Pcc_trace.Event.Utility_switch -> incr switches
          | _ -> ())
        (Pcc_trace.Collector.events collector);
      let mean_u = if !mis > 0 then !usum /. float_of_int !mis else 0. in
      Printf.printf
        "%-22s %8.2f Mbps  %4d MIs  mean u %10.3f  %5d gradient steps  %3d \
         switches  %6.2fs wall (%5.2fM ev/s)\n%!"
        name (goodput /. 1e6) !mis mean_u !grads !switches wall
        (if wall > 0. then float_of_int events /. wall /. 1e6 else 0.);
      {
        c_name = name;
        c_wall = wall;
        c_events = events;
        c_goodput = goodput;
        c_mis = !mis;
        c_mean_utility = mean_u;
        c_gradient_steps = !grads;
        c_utility_switches = !switches;
      })
    controller_bench_names

(* ------------------------------------------------------------------ *)
(* BENCH_pcc.json: a hand-rolled writer (no JSON dependency). *)

type bench_record = {
  b_name : string;
  b_wall : float;
  b_events : int;
  (* Present only when --jobs > 1: the sequential re-run. *)
  b_seq_wall : float option;
  b_identical : bool option;
  (* Set when the experiment raised instead of rendering. *)
  b_error : string option;
}

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json ~path ~scale ~seed ~jobs ~total_wall ?(scheduler = [])
    ?(controllers = []) records =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"pcc-bench/1\",\n";
  p "  \"scale\": %g,\n" scale;
  p "  \"seed\": %d,\n" seed;
  p "  \"jobs\": %d,\n" jobs;
  p "  \"total_wall_s\": %.6f,\n" total_wall;
  (* Every number in this file is only comparable on the host that
     produced it. *)
  p "  \"host\": { \"nproc\": %d, \"ocaml\": \"%s\" },\n"
    (Domain.recommended_domain_count ())
    (json_escape Sys.ocaml_version);
  if controllers <> [] then begin
    p "  \"controllers\": [\n";
    List.iteri
      (fun i r ->
        p "    {\n";
        p "      \"name\": \"%s\",\n" (json_escape r.c_name);
        p "      \"wall_s\": %.6f,\n" r.c_wall;
        p "      \"events\": %d,\n" r.c_events;
        p "      \"events_per_sec\": %.1f,\n"
          (if r.c_wall > 0. then float_of_int r.c_events /. r.c_wall else 0.);
        p "      \"goodput_mbps\": %.3f,\n" (r.c_goodput /. 1e6);
        p "      \"mis\": %d,\n" r.c_mis;
        p "      \"mean_utility\": %.6f,\n" r.c_mean_utility;
        p "      \"gradient_steps\": %d,\n" r.c_gradient_steps;
        p "      \"utility_switches\": %d\n" r.c_utility_switches;
        p "    }%s\n" (if i = List.length controllers - 1 then "" else ","))
      controllers;
    p "  ],\n"
  end;
  if scheduler <> [] then begin
    p "  \"scheduler\": [\n";
    List.iteri
      (fun i r ->
        p "    {\n";
        p "      \"name\": \"%s\",\n" (json_escape r.s_name);
        p "      \"pending\": %d,\n" r.s_pending;
        p "      \"ops\": %d,\n" r.s_ops;
        p "      \"heap_s\": %.6f,\n" r.s_heap;
        p "      \"wheel_s\": %.6f,\n" r.s_wheel;
        p "      \"heap_ops_per_sec\": %.1f,\n"
          (if r.s_heap > 0. then float_of_int r.s_ops /. r.s_heap else 0.);
        p "      \"wheel_ops_per_sec\": %.1f,\n"
          (if r.s_wheel > 0. then float_of_int r.s_ops /. r.s_wheel else 0.);
        p "      \"wheel_speedup\": %.3f\n"
          (if r.s_wheel > 0. then r.s_heap /. r.s_wheel else 0.);
        p "    }%s\n" (if i = List.length scheduler - 1 then "" else ","))
      scheduler;
    p "  ],\n"
  end;
  p "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" (json_escape r.b_name);
      p "      \"wall_s\": %.6f,\n" r.b_wall;
      p "      \"events\": %d,\n" r.b_events;
      p "      \"events_per_sec\": %.1f"
        (if r.b_wall > 0. then float_of_int r.b_events /. r.b_wall else 0.);
      (match r.b_error with
      | Some msg -> p ",\n      \"error\": \"%s\"" (json_escape msg)
      | None -> ());
      (match r.b_seq_wall with
      | Some sw ->
        p ",\n      \"seq_wall_s\": %.6f,\n" sw;
        p "      \"speedup\": %.3f,\n"
          (if r.b_wall > 0. then sw /. r.b_wall else 0.);
        p "      \"identical\": %b\n"
          (match r.b_identical with Some b -> b | None -> false)
      | None -> p "\n");
      p "    }%s\n" (if i = List.length records - 1 then "" else ","))
    records;
  p "  ]\n";
  p "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let scale = ref 0.3 in
  let seed = ref 42 in
  let only = ref [] in
  let jobs = ref 1 in
  let out = ref "BENCH_pcc.json" in
  let trace_dir = ref None in
  let run_micro = ref false in
  let run_sched = ref false in
  let run_controllers = ref false in
  let list_only = ref false in
  (* A malformed number fails like a rejected one (see the Cli_validate
     checks below): one line on stderr and exit code 2. *)
  let number flag parse_opt what v =
    match parse_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "bench: error: %s expects %s (got %S)\n" flag what v;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := number "--scale" float_of_string_opt "a number" v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := number "--seed" int_of_string_opt "an integer" v;
      parse rest
    | "--only" :: v :: rest ->
      only := String.split_on_char ',' v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := number "--jobs" int_of_string_opt "an integer" v;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--trace" :: v :: rest ->
      trace_dir := Some v;
      parse rest
    | "--micro" :: rest ->
      run_micro := true;
      parse rest
    | "--sched" :: rest ->
      run_sched := true;
      parse rest
    | "--controllers" :: rest ->
      run_controllers := true;
      parse rest
    | "--list" :: rest ->
      list_only := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\n\
         usage: main.exe [--scale S] [--seed N] [--only a,b|none] [--jobs N] \
         [--out FILE] [--trace DIR] [--micro] [--sched] [--controllers] \
         [--list]\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    print_string (Exp_registry.listing ());
    exit 0
  end;
  if !run_micro then micro ()
  else begin
    (* Every argument is checked before any output: a bad one prints one
       "bench: error:" line and exits 2. *)
    let check = function
      | Ok v -> v
      | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
    in
    check
      Cli_validate.(
        all
          [
            positive_f "--scale" !scale;
            at_least "--jobs" 1 !jobs;
            non_negative_i "--seed" !seed;
          ]);
    (* [--only none] selects no experiments: a run that only wants the
       --sched micro-benchmarks. *)
    let selected =
      check
        (if !only = [ "none" ] then Ok []
         else Exp_registry.select ~extra:[] !only)
    in
    let dump_dir = Sys.getenv_opt "PCC_DUMP_DIR" in
    Runner.make_dirs (Option.to_list !trace_dir @ Option.to_list dump_dir)
    |> Result.map_error (( ^ ) "error: ")
    |> check;
    (* The JSON is written only after every run: find out now whether
       it can be, without truncating what is there. *)
    (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 !out)
     with Sys_error m -> check (Error ("error: " ^ m)));
    let (mismatches, crashed), trace =
      Runner.traced !trace_dir ~jobs:!jobs @@ fun ~jobs ->
      Printf.printf
        "PCC reproduction benchmarks (scale %.2f of paper durations, seed \
         %d, jobs %d)\n"
        !scale !seed jobs;
      let pool = if jobs > 1 then Some (Runner.create ~jobs ()) else None in
      let mismatches = ref [] in
      let crashed = ref [] in
      let t_start = now_s () in
      let records =
        List.map
          (fun e ->
            let open Exp_registry in
            print_string (header e);
            flush stdout;
            let e0 = Pcc_sim.Engine.total_executed () in
            (* Sub-second sweeps marked [parallel = false] skip the pool:
               domain fan-out costs more than it saves there (game
               measured 0.44x at --jobs 2 on this workload). *)
            let pool = if e.parallel then pool else None in
            if pool = None && jobs > 1 then
              Printf.printf "[%s runs sequentially: sweep too small to \
                             amortize the domain pool]\n%!"
                e.name;
            let t0 = now_s () in
            (* A failing experiment must not take the rest of the sweep
               down: record it, keep going, fail the run at the end. Task
               failures come back as holes in the rendered tables and
               land in the executor's tally; anything else raises. *)
            Runner.reset_failures ();
            let rendered =
              match Exp_registry.run ?pool ~scale:!scale ~seed:!seed e with
              | exception exn -> Error (Printexc.to_string exn)
              | out -> (
                match Runner.failure_summary () with
                | None -> Ok out
                | Some msg -> Error msg)
            in
            let wall = now_s () -. t0 in
            let events = Pcc_sim.Engine.total_executed () - e0 in
            let record =
              {
                b_name = e.name;
                b_wall = wall;
                b_events = events;
                b_seq_wall = None;
                b_identical = None;
                b_error = None;
              }
            in
            let written =
              Result.bind rendered (fun (text, series) ->
                  print_string text;
                  match dump_dir with
                  | None -> Ok text
                  | Some dir ->
                    Result.map
                      (fun lines -> print_string lines; text)
                      (write_series ~dir series))
            in
            match written with
            | Error msg ->
              crashed := e.name :: !crashed;
              Printf.printf "[%s FAILED after %.1fs: %s]\n%!" e.name wall msg;
              { record with b_error = Some msg }
            | Ok rendered -> (
              Printf.printf "[%s took %.1fs wall, %d events]\n%!" e.name wall
                events;
              match pool with
              | None -> record
              | Some _ ->
                (* Sequential re-run: measures speedup and proves the
                   parallel tables are byte-identical. *)
                let t0 = now_s () in
                let seq, _ = Exp_registry.run ~scale:!scale ~seed:!seed e in
                let sw = now_s () -. t0 in
                let same = String.equal seq rendered in
                if not same then begin
                  mismatches := e.name :: !mismatches;
                  Printf.printf
                    "[%s MISMATCH: parallel output differs from sequential]\n%!"
                    e.name
                end
                else
                  Printf.printf "[%s sequential re-run %.1fs, speedup %.2fx, \
                                 outputs identical]\n%!"
                    e.name sw
                    (if wall > 0. then sw /. wall else 0.);
                { record with b_seq_wall = Some sw; b_identical = Some same }))
          (* In registry order, whatever the order of --only. *)
          (List.filter (fun e -> List.memq e selected) Exp_registry.all)
      in
      let scheduler = if !run_sched then sched_bench () else [] in
      let controllers =
        if !run_controllers then controller_bench ~seed:!seed else []
      in
      let total_wall = now_s () -. t_start in
      write_bench_json ~path:!out ~scale:!scale ~seed:!seed ~jobs
        ~total_wall ~scheduler ~controllers records;
      Printf.printf "\n[bench results written to %s]\n%!" !out;
      (!mismatches, !crashed)
    in
    let trace_error =
      match trace with
      | Some (Ok line) ->
        Printf.printf "[%s]\n%!" line;
        false
      | Some (Error m) ->
        Printf.eprintf "bench: error: %s\n" m;
        true
      | None -> false
    in
    if mismatches <> [] then
      Printf.eprintf "determinism violation in: %s\n"
        (String.concat ", " (List.rev mismatches));
    if crashed <> [] then
      Printf.eprintf "bench: %d experiment(s) crashed: %s\n"
        (List.length crashed)
        (String.concat ", " (List.rev crashed));
    if mismatches <> [] || crashed <> [] || trace_error then exit 1
  end
