open Pcc_sim
open Pcc_scenario

type row = { combo : string; throughput : float; rtt : float; power : float }

let measure ~seed ~duration ~queue spec name =
  let bandwidth = Units.mbps 40. and rtt = 0.02 in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* Per-flow sub-queue capacity: 512 KB is the "bufferbloat" deep buffer
     (~100 ms of queueing at a 20 Mbps fair share); CoDel runs over the
     same capacity but keeps sojourn times near its 5 ms target. *)
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt ~buffer:(Units.kib 512)
      ~queue
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] spec;
          Topology.flow ~route:[ 0; 1 ] spec;
        ]
      ()
  in
  let warmup = Float.max 20. (duration /. 4.) in
  Engine.run ~until:warmup engine;
  let b0 = Array.map Topology.goodput_bytes (Topology.flows topo) in
  (* Sample RTT along the measurement window. *)
  let rtt_sum = ref 0. and rtt_n = ref 0 in
  let steps = 20 in
  for i = 1 to steps do
    Engine.run
      ~until:(warmup +. (duration *. float_of_int i /. float_of_int steps))
      engine;
    Array.iter
      (fun f ->
        rtt_sum := !rtt_sum +. f.Topology.sender.Pcc_net.Sender.srtt ();
        incr rtt_n)
      (Topology.flows topo)
  done;
  let b1 = Array.map Topology.goodput_bytes (Topology.flows topo) in
  let tputs =
    Array.mapi (fun i b -> float_of_int ((b - b0.(i)) * 8) /. duration) b1
  in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  let throughput = mean tputs in
  let avg_rtt = !rtt_sum /. float_of_int !rtt_n in
  { combo = name; throughput; rtt = avg_rtt; power = throughput /. avg_rtt }

let combos () =
  let pcc_latency =
    Transport.pcc
      ~config:
        (Pcc_core.Pcc_sender.config_with
           ~utility:(Pcc_core.Utility.latency ())
           ())
      ()
  in
  [
    ("TCP + FQ + CoDel", Topology.Fq Topology.Codel, Transport.tcp "cubic");
    ( "TCP + FQ + Bufferbloat",
      Topology.Fq Topology.Droptail,
      Transport.tcp "cubic" );
    ("PCC + FQ + CoDel", Topology.Fq Topology.Codel, pcc_latency);
    ("PCC + FQ + Bufferbloat", Topology.Fq Topology.Droptail, pcc_latency);
  ]

let tasks ?(scale = 1.) ?(seed = 42) () =
  let duration = 60. *. scale in
  List.map
    (fun (name, queue, spec) ->
      Exp_common.task ~seed
        ~label:(Printf.sprintf "power/%s" name)
        (fun () -> measure ~seed ~duration ~queue spec name))
    (combos ())

let run ?pool ?scale ?seed () =
  Exp_common.present
    (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ()))

let table rows =
  let find name =
    List.find_opt (fun r -> r.combo = name) rows
  in
  let note =
    match
      ( find "TCP + FQ + CoDel",
        find "TCP + FQ + Bufferbloat",
        find "PCC + FQ + CoDel",
        find "PCC + FQ + Bufferbloat" )
    with
    | Some tc, Some tb, Some pc, Some pb ->
      Some
        (Printf.sprintf
           "TCP codel/bloat power ratio: %.1fx | PCC codel/bloat: %.2fx | \
            PCC+bloat vs TCP+codel: %.2fx (paper: 10.5x, ~1.0x, 1.55x)"
           (Exp_common.ratio tc.power tb.power)
           (Exp_common.ratio pc.power pb.power)
           (Exp_common.ratio pb.power tc.power))
    | _ -> None
  in
  Exp_common.
    {
      title =
        "Fig. 17 - power under FQ (40 Mbps, 20 ms; 2 interactive flows)";
      header = [ "combination"; "tput Mbps"; "RTT ms"; "power Mbit/s^2" ];
      rows =
        List.map
          (fun r ->
            [
              r.combo;
              mbps r.throughput;
              f1 (r.rtt *. 1e3);
              f1 (r.power /. 1e6);
            ])
          rows;
      note;
    }
