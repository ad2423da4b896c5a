open Pcc_sim
open Pcc_scenario

type row = {
  protocol : string;
  throughput : float;
  optimal : float;
  fraction : float;
}

type series_point = { time : float; optimal : float; rate : float }

let measure ~seed ~duration spec =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let path =
    Path.build engine ~rng ~bandwidth:(Units.mbps 50.) ~rtt:0.05
      ~buffer:(Units.kib 256)
      ~flows:[ Path.flow spec ]
      ()
  in
  let dyn =
    Dynamics.start engine ~rng:(Rng.create (seed + 1))
      ~topo:(Path.topology path) ()
  in
  let flow = (Path.flows path).(0) in
  let series = ref [] in
  let sample = 5. in
  let steps = int_of_float (duration /. sample) in
  for i = 1 to steps do
    Engine.run ~until:(float_of_int i *. sample) engine;
    series :=
      {
        time = float_of_int i *. sample;
        optimal = Pcc_net.Link.bandwidth (Path.bottleneck path);
        rate = flow.Path.sender.Pcc_net.Sender.rate_estimate ();
      }
      :: !series
  done;
  Dynamics.stop dyn;
  let throughput =
    float_of_int (Path.goodput_bytes flow * 8) /. duration
  in
  let optimal = Dynamics.mean_optimal dyn ~until:duration in
  (throughput, optimal, List.rev !series)

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("illinois", Transport.tcp "illinois");
  ]

let tasks ?(scale = 1.) ?(seed = 42) () =
  let duration = Float.max 50. (500. *. scale) in
  List.map
    (fun (name, spec) ->
      Exp_common.task ~seed
        ~label:(Printf.sprintf "dynamic/%s" name)
        (fun () ->
          let throughput, optimal, series = measure ~seed ~duration spec in
          ( {
              protocol = name;
              throughput;
              optimal;
              fraction = Exp_common.ratio throughput optimal;
            },
            (name, series) )))
    (specs ())

let collect results =
  let present = Exp_common.present results in
  (List.map fst present, List.map snd present)

let run ?pool ?scale ?seed () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 11 - rapidly changing network (bw 10-100 Mbps, RTT 10-100 ms, \
         loss 0-1% redrawn every 5 s)";
      header = [ "protocol"; "tput Mbps"; "optimal Mbps"; "fraction" ];
      rows =
        List.map
          (fun r ->
            [
              r.protocol;
              mbps r.throughput;
              mbps r.optimal;
              Printf.sprintf "%.0f%%" (r.fraction *. 100.);
            ])
          rows;
      note =
        Some
          "Paper: PCC 83% of optimal over 500 s; CUBIC 14x and Illinois \
           5.6x worse than PCC.";
    }
