open Pcc_sim
open Pcc_scenario

type row = { long_rtt : float; pcc : float; cubic : float; newreno : float }

let default_rtts = [ 0.02; 0.04; 0.06; 0.08; 0.1 ]

let measure_ratio ~seed ~duration ~long_rtt spec =
  let bandwidth = Units.mbps 100. in
  let short_rtt = 0.01 in
  let buffer = Units.bdp_bytes ~rate:bandwidth ~rtt:short_rtt in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* Base RTT is the short flow's; the long flow adds the difference. *)
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt:short_rtt ~buffer
      ~flows:
        [
          Topology.flow ~route:[ 0; 1 ] ~label:"long"
            ~extra_rtt:(long_rtt -. short_rtt) spec;
          Topology.flow ~route:[ 0; 1 ] ~label:"short" ~start_at:5. spec;
        ]
      ()
  in
  let flows = Topology.flows topo in
  (* Let the competition settle for a fifth of the run, then measure. *)
  let t0 = 5. +. (duration /. 5.) and t1 = 5. +. duration in
  Engine.run ~until:t0 engine;
  let l0 = Topology.goodput_bytes flows.(0)
  and s0 = Topology.goodput_bytes flows.(1) in
  Engine.run ~until:t1 engine;
  let l1 = Topology.goodput_bytes flows.(0)
  and s1 = Topology.goodput_bytes flows.(1) in
  Exp_common.ratio (float_of_int (l1 - l0)) (float_of_int (s1 - s0))

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("newreno", Transport.tcp "newreno");
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(rtts = default_rtts) () =
  let duration = 500. *. scale in
  List.concat_map
    (fun long_rtt ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "rtt_fairness/%s/rtt=%g" name long_rtt)
            (fun () ->
              (long_rtt, measure_ratio ~seed ~duration ~long_rtt spec)))
        (specs ()))
    rtts

let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ p; c; n ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (long_rtt, _) :: _ ->
          Some { long_rtt; pcc = v p; cubic = v c; newreno = v n })
      | _ -> invalid_arg "Exp_rtt_fairness.collect: 3 measurements per RTT")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?rtts () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?rtts ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 8 - RTT fairness: long-RTT flow's share of a 10 ms flow's \
         throughput (100 Mbps shared)";
      header = [ "long RTT ms"; "PCC"; "CUBIC"; "NewReno" ];
      rows =
        List.map
          (fun r ->
            [
              f1 (r.long_rtt *. 1e3); f2 r.pcc; f2 r.cubic; f2 r.newreno;
            ])
          rows;
      note =
        Some
          "Ratio of long-RTT to short-RTT throughput; 1.0 = fair. Paper: \
           PCC near 1, CUBIC below, New Reno worst.";
    }
