open Pcc_sim
open Pcc_scenario
open Pcc_metrics

type row = {
  load : float;
  protocol : string;
  median : float;
  mean : float;
  p95 : float;
  completed : int;
}

let flow_size = 100 * 1024

let measure ~seed ~horizon ~load spec name =
  let bandwidth = Units.mbps 15. and rtt = 0.06 in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let arrival_rng = Rng.create (seed + 17) in
  (* Poisson arrivals with the mean spacing matching the offered load. *)
  let mean_gap =
    float_of_int (flow_size * 8) /. (load *. bandwidth)
  in
  let arrivals =
    let rec build t acc =
      let t = t +. Rng.exponential arrival_rng mean_gap in
      if t > horizon then List.rev acc else build t (t :: acc)
    in
    build 0. []
  in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:
        (List.map
           (fun at ->
             Topology.flow ~route:[ 0; 1 ] ~start_at:at ~size:flow_size spec)
           arrivals)
      ()
  in
  (* Drain time after the last arrival. *)
  Engine.run ~until:(horizon +. 30.) engine;
  let fcts =
    Array.to_list (Topology.flows topo)
    |> List.filter_map (fun (f : Topology.built_flow) -> f.fct)
  in
  let a = Array.of_list fcts in
  {
    load;
    protocol = name;
    median = (if a = [||] then nan else Stats.median a);
    mean = Stats.mean a;
    p95 = (if a = [||] then nan else Stats.percentile a 95.);
    completed = Array.length a;
  }

let specs () =
  [ ("pcc", Transport.pcc ()); ("tcp", Transport.tcp "newreno") ]

let tasks ?(scale = 1.) ?(seed = 42) ?(loads = [ 0.05; 0.25; 0.5; 0.75 ]) () =
  let horizon = Float.max 30. (120. *. scale) in
  List.concat_map
    (fun load ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "fct/%s/load=%g" name load)
            (fun () -> measure ~seed ~horizon ~load spec name))
        (specs ()))
    loads

let run ?pool ?scale ?seed ?loads () =
  Exp_common.present
    (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?loads ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 15 - short-flow FCT (100 KB flows, 15 Mbps, 60 ms; seconds)";
      header = [ "load"; "protocol"; "median"; "mean"; "p95"; "flows" ];
      rows =
        List.map
          (fun r ->
            [
              Printf.sprintf "%.0f%%" (r.load *. 100.);
              r.protocol;
              f3 r.median;
              f3 r.mean;
              f3 r.p95;
              string_of_int r.completed;
            ])
          rows;
      note =
        Some
          "Paper: PCC matches TCP's median and 95th-percentile FCT up to \
           75% load (95th pct ~20% above TCP at 75%).";
    }
