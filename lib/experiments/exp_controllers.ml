open Pcc_sim
open Pcc_scenario

(* The controller family head-to-head: the same workloads, one column
   per rate-control algorithm. Allegro is the paper's controller; Vivace
   (NSDI 2018) and Proteus (SIGCOMM 2020) are the successors the repo
   grows toward; CUBIC anchors the comparison to TCP. *)

type row = { workload : string; tputs : (string * float) list }

type phase_row = {
  prot : string;
  before_ : float;  (* goodput before the primary arrives, bits/s *)
  during : float;  (* while the primary holds the bottleneck *)
  after : float;  (* after the primary departs *)
}

let named n =
  match Transport.of_name n with
  | Ok s -> s
  | Error m -> invalid_arg ("Exp_controllers: " ^ m)

let controllers () =
  [
    ("allegro", Transport.pcc ());
    ("vivace", named "pcc-vivace");
    ("proteus", named "pcc-proteus-hybrid");
    ("cubic", Transport.tcp "cubic");
  ]

(* ---------------------------------------------------------------- *)
(* Workload measurements *)

(* Aggregate goodput of [n] identical senders fanning into one
   bottleneck, measured after a warmup window. *)
let incast ~seed ~duration ~n spec =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 100.) ~rtt:0.02
      ~buffer:(Units.kib 128)
      ~flows:(List.init n (fun _ -> Topology.flow ~route:[ 0; 1 ] spec))
      ()
  in
  let warmup = Float.max 2. (duration /. 5.) in
  Engine.run ~until:warmup engine;
  let before = Array.map Topology.goodput_bytes (Topology.flows topo) in
  Engine.run ~until:(warmup +. duration) engine;
  let fl = Topology.flows topo in
  let total = ref 0 in
  Array.iteri
    (fun i f -> total := !total + Topology.goodput_bytes f - before.(i))
    fl;
  float_of_int (!total * 8) /. duration

(* The controller's own goodput while sharing the bottleneck with one
   CUBIC flow — the friendliness angle of the head-to-head. *)
let vs_cubic ~seed ~duration spec =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.mbps 50.) ~rtt:0.03
      ~buffer:(Units.bdp_bytes ~rate:(Units.mbps 50.) ~rtt:0.03)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~label:"dut" spec;
          Topology.flow ~route:[ 0; 1 ] (Transport.tcp "cubic");
        ]
      ()
  in
  let warmup = Float.max 2. (duration /. 5.) in
  Engine.run ~until:warmup engine;
  let dut = (Topology.flows topo).(0) in
  let before = Topology.goodput_bytes dut in
  Engine.run ~until:(warmup +. duration) engine;
  float_of_int ((Topology.goodput_bytes dut - before) * 8) /. duration

let workloads ~duration =
  let bw = Units.mbps 50. in
  let rtt = 0.03 in
  let bdp = Units.bdp_bytes ~rate:bw ~rtt in
  let solo ?loss ?jitter ?(buffer = bdp) () ~seed spec =
    Exp_common.solo_throughput ~seed ?loss ?jitter ~bandwidth:bw ~rtt ~buffer
      ~duration spec
  in
  [
    ("clean", fun ~seed spec -> solo () ~seed spec);
    ("loss-1%", fun ~seed spec -> solo ~loss:0.01 () ~seed spec);
    ("loss-3%", fun ~seed spec -> solo ~loss:0.03 () ~seed spec);
    ( "shallow-buf",
      fun ~seed spec -> solo ~buffer:(6 * Units.mss) () ~seed spec );
    ("incast-8", fun ~seed spec -> incast ~seed ~duration ~n:8 spec);
    ("vs-cubic", fun ~seed spec -> vs_cubic ~seed ~duration spec);
  ]

(* ---------------------------------------------------------------- *)
(* Scavenger vs primary *)

(* One long-lived background flow shares a bottleneck with a Proteus
   primary active only during the middle window. The defining Proteus
   behaviour: a scavenger's throughput collapses while the primary is
   present and recovers once it departs; a Vivace flow (the contrast
   row) keeps competing for its share throughout. *)
let scavenger_phases ~seed ~window background =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let bw = Units.mbps 30. in
  let rtt = 0.03 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:bw ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bw ~rtt)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~label:"background" background;
          Topology.flow ~route:[ 0; 1 ] ~label:"primary"
            ~start_at:(2. *. window) ~stop_at:(3. *. window)
            (named "pcc-proteus");
        ]
      ()
  in
  let bg = (Topology.flows topo).(0) in
  let sample t0 t1 =
    Engine.run ~until:t0 engine;
    let b = Topology.goodput_bytes bg in
    Engine.run ~until:t1 engine;
    float_of_int ((Topology.goodput_bytes bg - b) * 8) /. (t1 -. t0)
  in
  (* Each sample reads the steady state of its phase, not the
     transition into it: the background flow gets two windows to settle
     before the primary arrives (a scavenger's start-up overshoot
     triggers a self-yield it must walk back from), and the "after"
     sample waits 1.5 windows past the primary's departure so the
     recovery climb from the yield floor has completed. *)
  let before_ = sample (1.5 *. window) (2. *. window) in
  let during = sample (2.5 *. window) (3. *. window) in
  let after = sample (4.5 *. window) (5. *. window) in
  { prot = ""; before_; during; after }

(* ---------------------------------------------------------------- *)
(* Tasks / collect / run *)

let head_tasks ~scale ~seed =
  let duration = Float.max 3. (30. *. scale) in
  List.concat_map
    (fun (wname, measure) ->
      List.map
        (fun (cname, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "controllers/%s/%s" wname cname)
            (fun () -> (wname, cname, measure ~seed spec)))
        (controllers ()))
    (workloads ~duration)

let phase_tasks ~scale ~seed =
  (* The window must out-last the primary's start-up: doubling into an
     occupied link ends in a loss burst that crashes the primary to a
     junk rate, and its gradient climb back to pressing strength eats
     ~2.5 s. A shorter window ends the "primary active" sample while the
     link still looks idle to the yielded scavenger. *)
  let window = Float.max 5. (20. *. scale) in
  List.map
    (fun (pname, spec) ->
      Exp_common.task ~seed
        ~label:(Printf.sprintf "controllers/scavenger/%s" pname)
        (fun () ->
          { (scavenger_phases ~seed ~window spec) with prot = pname }))
    [
      ("proteus-scavenger", named "pcc-proteus-scavenger");
      ("vivace", named "pcc-vivace");
    ]

let collect_head results =
  let present = Exp_common.present results in
  List.map
    (fun (wname, cells) ->
      { workload = wname; tputs = List.map (fun (_, c, v) -> (c, v)) cells })
    (Exp_common.group_by (fun (w, _, _) -> w) present)

let run ?pool ?(scale = 1.) ?(seed = 42) () =
  let head =
    collect_head
      (Exp_common.run_tasks_opt ?pool (head_tasks ~scale ~seed))
  in
  let phases =
    Exp_common.present
      (Exp_common.run_tasks_opt ?pool (phase_tasks ~scale ~seed))
  in
  (head, phases)

(* ---------------------------------------------------------------- *)
(* Tables *)

let column_names = List.map fst (controllers ())

let table rows =
  Exp_common.
    {
      title = "Controller family head-to-head (goodput, Mbps)";
      header = "workload" :: column_names;
      rows =
        List.map
          (fun r ->
            r.workload
            :: List.map
                 (fun c ->
                   match List.assoc_opt c r.tputs with
                   | Some v -> mbps v
                   | None -> "n/a")
                 column_names)
          rows;
      note =
        Some
          "50 Mbps / 30 ms dumbbell unless stated; incast-8 is aggregate \
           over a 100 Mbps fan-in; vs-cubic is the controller's share \
           against one CUBIC flow. proteus = hybrid class (2 Mbps floor, \
           scavenges the surplus).";
    }

let phase_table rows =
  Exp_common.
    {
      title = "Proteus scavenger vs a transient primary (30 Mbps bottleneck)";
      header =
        [ "background flow"; "before Mbps"; "primary active"; "after" ];
      rows =
        List.map
          (fun r ->
            [ r.prot; mbps r.before_; mbps r.during; mbps r.after ])
          rows;
      note =
        Some
          "The scavenger should collapse while the primary holds the link \
           and reclaim the bandwidth after it leaves; Vivace (contrast \
           row) keeps competing throughout.";
    }
