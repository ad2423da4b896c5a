open Pcc_sim
open Pcc_scenario
open Pcc_metrics

type point = {
  label : string;
  convergence_time : float option;
  stddev : float;
}

let pcc_with ?(rct = true) ?(eps = 0.01) ~tm () =
  Transport.pcc
    ~config:
      (Pcc_core.Pcc_sender.config_with ~rct ~eps_min:eps ~mi_rtt:(tm, tm) ())
    ()

let configs () =
  [
    ("pcc Tm=4.8 e=.01", pcc_with ~tm:4.8 ());
    ("pcc Tm=3.0 e=.01", pcc_with ~tm:3.0 ());
    ("pcc Tm=2.0 e=.01", pcc_with ~tm:2.0 ());
    ("pcc Tm=1.0 e=.01", pcc_with ~tm:1.0 ());
    ("pcc Tm=1.0 e=.02", pcc_with ~tm:1.0 ~eps:0.02 ());
    ("pcc Tm=1.0 e=.05", pcc_with ~tm:1.0 ~eps:0.05 ());
    ("pcc noRCT Tm=1.0 e=.01", pcc_with ~rct:false ~tm:1.0 ());
    ("pcc noRCT Tm=2.0 e=.01", pcc_with ~rct:false ~tm:2.0 ());
    ("cubic", Transport.tcp "cubic");
    ("newreno", Transport.tcp "newreno");
    ("vegas", Transport.tcp "vegas");
    ("bic", Transport.tcp "bic");
    ("hybla", Transport.tcp "hybla");
    ("westwood", Transport.tcp "westwood");
  ]

let single ~seed ~horizon spec =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let b_start = 20. in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] spec;
          Topology.flow ~route:[ 0; 1 ] ~start_at:b_start spec;
        ]
      ()
  in
  let flow_b = (Topology.flows topo).(1) in
  let rec_b =
    Recorder.create engine ~interval:1. (fun () ->
        float_of_int (Topology.goodput_bytes flow_b))
  in
  Engine.run ~until:(b_start +. horizon) engine;
  Recorder.stop rec_b;
  let series =
    Array.map (fun (t, v) -> (t -. b_start, v)) (Recorder.rates_bps rec_b)
  in
  let series = Array.of_list (Array.to_list series |> List.filter (fun (t, _) -> t >= 0.)) in
  let ideal = bandwidth /. 2. in
  let ct = Convergence.convergence_time ~ideal series in
  let sd =
    match ct with
    | Some t -> Convergence.stddev_after ~from:t ~duration:60. series
    | None ->
      Convergence.stddev_after ~from:(horizon -. 60.) ~duration:60. series
  in
  (ct, sd)

type sample = { s_label : string; s_ct : float option; s_sd : float }

let tasks ?(scale = 1.) ?(seed = 42) ?trials () =
  let trials =
    match trials with Some t -> t | None -> max 2 (int_of_float (4. *. scale))
  in
  let horizon = Float.max 80. (150. *. scale) in
  List.concat_map
    (fun (label, spec) ->
      List.init trials (fun i ->
          let trial_seed = seed + (101 * i) in
          Exp_common.task ~seed:trial_seed
            ~label:(Printf.sprintf "tradeoff/%s/trial=%d" label i)
            (fun () ->
              let ct, sd = single ~seed:trial_seed ~horizon spec in
              { s_label = label; s_ct = ct; s_sd = sd })))
    (configs ())

let collect samples =
  Exp_common.group_by (fun s -> s.s_label) (Exp_common.present samples)
  |> List.map (fun (label, cell) ->
         let cts = List.filter_map (fun s -> s.s_ct) cell in
         {
           label;
           convergence_time =
             (if cts = [] then None
              else Some (Stats.mean (Array.of_list cts)));
           stddev = Stats.mean (Array.of_list (List.map (fun s -> s.s_sd) cell));
         })

let run ?pool ?scale ?seed ?trials () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?trials ()))

let table points =
  Exp_common.
    {
      title =
        "Fig. 16 - stability vs reactiveness (flow B joining a 100 Mbps \
         link; convergence to fair share, stddev after convergence)";
      header = [ "configuration"; "conv time s"; "stddev Mbps" ];
      rows =
        List.map
          (fun p ->
            [
              p.label;
              (match p.convergence_time with
              | Some t -> f1 t
              | None -> "n/a");
              f2 (p.stddev /. 1e6);
            ])
          points;
      note =
        Some
          "Paper: the PCC sweep traces a frontier dominating all TCP \
           points; RCT cuts variance up to 35% for ~3% extra convergence \
           time at Tm=1.0.";
    }
