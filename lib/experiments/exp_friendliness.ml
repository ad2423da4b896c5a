open Pcc_sim
open Pcc_scenario

type row = {
  bandwidth : float;
  rtt : float;
  selfish : int;
  tcp_vs_pcc : float;
  tcp_vs_bundle : float;
  unfriendliness : float;
}

let configs =
  [
    (Units.mbps 10., 0.01);
    (Units.mbps 30., 0.02);
    (Units.mbps 30., 0.01);
    (Units.mbps 100., 0.01);
  ]

(* Throughput of one normal New Reno flow competing with [selfish_flows]. *)
let normal_tcp_throughput ~seed ~duration ~bandwidth ~rtt selfish_flows =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* At least ~50 packets of buffer: the small-link BDPs here are a
     handful of packets, and an 8-packet FIFO starves any bursty
     (ack-clocked) flow regardless of who it competes with. *)
  let buffer =
    max (Units.bdp_bytes ~rate:bandwidth ~rtt) (50 * Units.mss)
  in
  let path =
    Path.build engine ~rng ~bandwidth ~rtt ~buffer
      ~flows:(Path.flow ~label:"normal" (Transport.tcp "newreno") :: selfish_flows)
      ()
  in
  let warmup = duration /. 5. in
  Exp_common.goodput_between engine
    (Topology.flows (Path.topology path)).(0)
    ~t0:warmup
    ~t1:(warmup +. duration)

let tasks ?(scale = 1.) ?(seed = 42) ?(selfish_counts = [ 1; 2; 4; 8 ]) () =
  let duration = 100. *. scale in
  List.concat_map
    (fun (bandwidth, rtt) ->
      List.concat_map
        (fun n ->
          let label kind =
            Printf.sprintf "friendliness/%s/bw=%g/n=%d" kind (bandwidth /. 1e6)
              n
          in
          [
            Exp_common.task ~seed ~label:(label "vs-pcc") (fun () ->
                normal_tcp_throughput ~seed ~duration ~bandwidth ~rtt
                  (List.init n (fun _ -> Path.flow (Transport.pcc ()))));
            Exp_common.task ~seed ~label:(label "vs-bundle") (fun () ->
                normal_tcp_throughput ~seed ~duration ~bandwidth ~rtt
                  (List.init (n * 10) (fun _ ->
                       Path.flow (Transport.tcp "newreno"))));
          ])
        selfish_counts)
    configs

let collect ?(selfish_counts = [ 1; 2; 4; 8 ]) results =
  let cells =
    List.concat_map
      (fun (bandwidth, rtt) ->
        List.map (fun n -> (bandwidth, rtt, n)) selfish_counts)
      configs
  in
  let v = Exp_common.value_or_nan in
  List.map2
    (fun (bandwidth, rtt, n) -> function
      | [ vs_pcc; vs_bundle ] ->
        {
          bandwidth;
          rtt;
          selfish = n;
          tcp_vs_pcc = v vs_pcc;
          tcp_vs_bundle = v vs_bundle;
          (* >1: the normal flow does better against PCC than against
             the parallel-TCP bundle, i.e. PCC is friendlier. *)
          unfriendliness = Exp_common.ratio (v vs_pcc) (v vs_bundle);
        }
      | _ -> invalid_arg "Exp_friendliness.collect: 2 measurements per cell")
    cells
    (Exp_common.chunk 2 results)

let run ?pool ?scale ?seed ?selfish_counts () =
  collect ?selfish_counts
    (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?selfish_counts ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 14 - friendliness to a normal TCP flow: 1 PCC vs a bundle of \
         10 parallel TCPs per selfish unit";
      header =
        [
          "link";
          "units";
          "TCP tput vs PCC";
          "vs 10xTCP bundle";
          "PCC-friendlier";
        ];
      rows =
        List.map
          (fun r ->
            [
              Printf.sprintf "%.0fMbps/%.0fms" (r.bandwidth /. 1e6)
                (r.rtt *. 1e3);
              string_of_int r.selfish;
              mbps r.tcp_vs_pcc;
              mbps r.tcp_vs_bundle;
              f2 r.unfriendliness;
            ])
          rows;
      note =
        Some
          "Last column >1 means the normal TCP flow keeps more throughput \
           against PCC than against the common parallel-TCP practice \
           (paper: PCC friendlier for most configurations, more so as \
           units increase).";
    }
