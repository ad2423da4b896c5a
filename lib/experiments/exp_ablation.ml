open Pcc_sim
open Pcc_scenario
open Pcc_core

type row = { label : string; loss : float; throughput : float }

let pcc_conservative b =
  Transport.pcc
    ~config:
      (Pcc_sender.config_with ~utility:(Utility.safe ~conservative:b ()) ())
    ()

let pcc_min_pkts n =
  let c = Pcc_sender.default_config in
  Transport.pcc
    ~config:
      { c with Pcc_sender.monitor = { c.Pcc_sender.monitor with Monitor.min_pkts = n } }
    ()

let variants () =
  [
    ("safe utility, LCB loss (default)", pcc_conservative true);
    ("safe utility, raw loss (paper literal)", pcc_conservative false);
    ("MI >= 10 pkts (default)", pcc_min_pkts 10);
    ("MI >= 40 pkts", pcc_min_pkts 40);
  ]

let tasks ?(scale = 1.) ?(seed = 42) () =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let buffer = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let duration = 60. *. scale in
  List.concat_map
    (fun loss ->
      List.map
        (fun (label, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "ablation/%s/loss=%g" label loss)
            (fun () ->
              {
                label;
                loss;
                throughput =
                  Exp_common.solo_throughput ~seed ~bandwidth ~rtt ~buffer
                    ~duration ~loss spec;
              }))
        (variants ()))
    [ 0.0; 0.01 ]

let run ?pool ?scale ?seed () =
  Exp_common.present
    (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ()))

let table rows =
  Exp_common.
    {
      title = "Ablation - noise handling on a lossy link (100 Mbps, 30 ms)";
      header = [ "variant"; "loss%"; "tput Mbps" ];
      rows =
        List.map
          (fun r ->
            [ r.label; f1 (r.loss *. 100.); mbps r.throughput ])
          rows;
      note =
        Some
          "The confidence-bound variant climbs through random loss that \
           stalls the literal formula (one drop in a 10-packet MI reads \
           as 10% loss); larger MIs help the literal formula at the cost \
           of decision latency.";
    }
