open Pcc_sim
open Pcc_scenario
open Pcc_metrics

type protocol_result = {
  protocol : string;
  jain : (float * float) list;
  mean_stddev : float;
  series : (float * float) array list;
}

let timescales = [ 1.; 5.; 15.; 30.; 60. ]

let measure ~seed ~stagger ~flows spec name =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:
        (List.init flows (fun i ->
             Topology.flow ~route:[ 0; 1 ]
               ~start_at:(float_of_int i *. stagger)
               spec))
      ()
  in
  let recorders =
    Array.map
      (fun f ->
        Recorder.create engine ~interval:1. (fun () ->
            float_of_int (Topology.goodput_bytes f)))
      (Topology.flows topo)
  in
  (* All flows are active during [ (flows-1)·stagger, flows·stagger );
     skip the first 40% of that interval so the last joiner's convergence
     transient is not measured as unfairness. *)
  let t_all = float_of_int (flows - 1) *. stagger in
  let t_end = float_of_int flows *. stagger in
  Engine.run ~until:t_end engine;
  Array.iter Recorder.stop recorders;
  let w_start = t_all +. (0.4 *. stagger) in
  let window r =
    Array.of_list
      (Array.to_list (Recorder.rates_bps r)
      |> List.filter (fun (t, _) -> t >= w_start && t < t_end))
  in
  let windows = Array.to_list (Array.map window recorders) in
  let jain =
    List.map
      (fun ts -> (ts, Convergence.jain_over_timescale ~timescale:ts windows))
      timescales
  in
  let stds =
    List.map (fun s -> Stats.stddev (Array.map snd s)) windows
  in
  {
    protocol = name;
    jain;
    mean_stddev =
      List.fold_left ( +. ) 0. stds /. float_of_int (max 1 (List.length stds));
    series = windows;
  }

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("newreno", Transport.tcp "newreno");
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(flows = 4) () =
  let stagger = Float.max 120. (500. *. scale) in
  List.map
    (fun (name, spec) ->
      Exp_common.task ~seed
        ~label:(Printf.sprintf "convergence/%s" name)
        (fun () -> measure ~seed ~stagger ~flows spec name))
    (specs ())

let run ?pool ?scale ?seed ?flows () =
  Exp_common.present
    (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?flows ()))

let table results =
  let header =
    "protocol"
    :: List.map (fun ts -> Printf.sprintf "Jain@%.0fs" ts) timescales
    @ [ "rate stddev Mbps" ]
  in
  Exp_common.
    {
      title =
        "Fig. 12/13 - convergence of 4 staggered flows (100 Mbps dumbbell): \
         Jain index by time scale, per-flow rate stddev";
      header;
      rows =
        List.map
          (fun r ->
            r.protocol
            :: List.map (fun (_, j) -> Printf.sprintf "%.4f" j) r.jain
            @ [ f2 (r.mean_stddev /. 1e6) ])
          results;
      note =
        Some
          "Paper: PCC's Jain index beats CUBIC/New Reno at every time \
           scale; PCC rate variance is a fraction of CUBIC's.";
    }
