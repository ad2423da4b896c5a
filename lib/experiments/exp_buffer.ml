open Pcc_sim
open Pcc_scenario

type row = { buffer : int; pcc : float; cubic : float; paced_reno : float }

let default_buffers =
  [ 1500; 4500; 9000; 18000; 45000; 90000; 187500; 375000 ]

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("paced-reno", Transport.tcp_paced "newreno");
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(buffers = default_buffers) () =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let duration = 100. *. scale in
  List.concat_map
    (fun buffer ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "fig9/%s/buf=%d" name buffer)
            (fun () ->
              ( buffer,
                Exp_common.solo_throughput ~seed ~bandwidth ~rtt ~buffer
                  ~duration spec )))
        (specs ()))
    buffers

(* Partial inputs: a failed measurement leaves NaN in its cell; a buffer
   point where every protocol failed is dropped (its size is unknown). *)
let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ p; c; pr ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (buffer, _) :: _ ->
          Some { buffer; pcc = v p; cubic = v c; paced_reno = v pr })
      | _ -> invalid_arg "Exp_buffer.collect: 3 measurements per buffer")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?buffers () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?buffers ()))

let table rows =
  Exp_common.
    {
      title = "Fig. 9 - shallow bottleneck buffers (100 Mbps, 30 ms; Mbps)";
      header = [ "buf KB"; "pkts"; "PCC"; "CUBIC"; "TCP+pacing" ];
      rows =
        List.map
          (fun r ->
            [
              f1 (float_of_int r.buffer /. 1000.);
              string_of_int (r.buffer / Units.mss);
              mbps r.pcc;
              mbps r.cubic;
              mbps r.paced_reno;
            ])
          rows;
      note =
        Some
          "Paper: PCC reaches 90% capacity with 6 MSS of buffer; CUBIC \
           needs 13x more; even paced TCP needs 25x more.";
    }
