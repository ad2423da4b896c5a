open Pcc_sim
open Pcc_scenario

type row = {
  buffer : int;
  pcc : float;
  hybla : float;
  illinois : float;
  cubic : float;
  newreno : float;
}

let default_buffers =
  [ 1500; 7500; 15000; 30000; 75000; 150000; 375000; 1000000 ]

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("hybla", Transport.tcp "hybla");
    ("illinois", Transport.tcp "illinois");
    ("cubic", Transport.tcp "cubic");
    ("newreno", Transport.tcp "newreno");
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(buffers = default_buffers) () =
  let bandwidth = Units.mbps 42. and rtt = 0.8 and loss = 0.0074 in
  let duration = 100. *. scale in
  (* PCC's paper-faithful 2*MSS/RTT start is 30 kbps here and the climb
     through monitor intervals of ~1.4 s takes tens of seconds, so steady
     state needs a long warmup (the paper reports 100 s averages where the
     ramp is a modest fraction). *)
  List.concat_map
    (fun buffer ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "fig6/%s/buf=%d" name buffer)
            (fun () ->
              ( buffer,
                Exp_common.solo_throughput ~seed ~warmup:(60. *. rtt)
                  ~bandwidth ~rtt ~buffer ~duration ~loss spec )))
        (specs ()))
    buffers

let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ p; h; i; c; n ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (buffer, _) :: _ ->
          Some
            {
              buffer;
              pcc = v p;
              hybla = v h;
              illinois = v i;
              cubic = v c;
              newreno = v n;
            })
      | _ -> invalid_arg "Exp_satellite.collect: 5 measurements per buffer")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?buffers () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?buffers ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 6 - satellite link (42 Mbps, 800 ms RTT, 0.74% loss; Mbps)";
      header =
        [ "buf KB"; "PCC"; "Hybla"; "Illinois"; "CUBIC"; "NewReno"; "PCC/Hybla" ];
      rows =
        List.map
          (fun r ->
            [
              f1 (float_of_int r.buffer /. 1000.);
              mbps r.pcc;
              mbps r.hybla;
              mbps r.illinois;
              mbps r.cubic;
              mbps r.newreno;
              f1 (ratio r.pcc r.hybla);
            ])
          rows;
      note =
        Some
          "Paper: PCC ~90% of capacity from 7.5 KB buffers; Hybla 17x and \
           Illinois 54x below PCC at 1 MB.";
    }
