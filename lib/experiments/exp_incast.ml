open Pcc_sim
open Pcc_scenario

type row = { senders : int; block : int; pcc : float; tcp : float }

let default_senders = [ 5; 10; 15; 20; 25; 30; 33 ]
let default_blocks = [ 65536; 131072; 262144 ]

(* One synchronized round: all senders start at t=0 with [block] bytes;
   goodput = total data / time of the last completion. *)
let round ~seed ~senders ~block spec =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let jitter_rng = Rng.create (seed + 3) in
  (* Sub-millisecond start jitter: the barrier is software, not a pulse
     generator, and perfectly synchronized identical senders would act in
     unrealistic lockstep. *)
  (* The incast star collapses onto the graph as a dumbbell: every sender
     shares the switch's 1 Gbps egress link. Specs mirror what Path.build
     would produce, so seeded results are identical with the pre-graph
     implementation. *)
  let rtt = 0.0001 in
  let topo =
    Topology.build engine ~rng
      ~links:
        [
          Topology.link ~name:"bottleneck" ~delay:(rtt /. 2.) ~buffer:65536
            ~src:0 ~dst:1 ~bandwidth:(Units.gbps 1.) ();
        ]
      ~flows:
        (List.init senders (fun _ ->
             Topology.flow
               ~start_at:(Rng.uniform jitter_rng 0. 0.0005)
               ~size:block ~route:[ 0; 1 ] spec))
      ()
  in
  (* Generous deadline; incomplete flows count as the full horizon. *)
  let horizon = 5.0 in
  Engine.run ~until:horizon engine;
  let worst =
    Array.fold_left
      (fun acc (f : Topology.built_flow) ->
        match f.Topology.fct with
        | Some fct -> Float.max acc fct
        | None -> horizon)
      0. (Topology.flows topo)
  in
  float_of_int (senders * block * 8) /. Float.max worst 1e-9

(* A task's result carries its cell key so [collect] can re-aggregate the
   per-round measurements regardless of how many rounds [scale] chose. *)
type sample = { s_block : int; s_senders : int; s_proto : string; v : float }

let specs () =
  [ ("pcc", Transport.pcc ()); ("tcp", Transport.tcp "newreno") ]

let tasks ?(scale = 1.) ?(seed = 42) ?(senders = default_senders)
    ?(blocks = default_blocks) () =
  let rounds = max 2 (int_of_float (15. *. scale)) in
  List.concat_map
    (fun block ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun (proto, spec) ->
              List.init rounds (fun i ->
                  let round_seed = seed + (i * 7919) in
                  Exp_common.task ~seed:round_seed
                    ~label:
                      (Printf.sprintf "incast/%s/block=%d/n=%d/round=%d" proto
                         block n i)
                    (fun () ->
                      {
                        s_block = block;
                        s_senders = n;
                        s_proto = proto;
                        v = round ~seed:round_seed ~senders:n ~block spec;
                      })))
            (specs ()))
        senders)
    blocks

let collect samples =
  let mean = function
    | [] -> nan
    | vs -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
  in
  Exp_common.group_by (fun s -> (s.s_block, s.s_senders)) (Exp_common.present samples)
  |> List.map (fun ((block, n), cell) ->
         let of_proto p =
           mean (List.filter_map (fun s -> if s.s_proto = p then Some s.v else None) cell)
         in
         { senders = n; block; pcc = of_proto "pcc"; tcp = of_proto "tcp" })

let run ?pool ?scale ?seed ?senders ?blocks () =
  collect
    (Exp_common.run_tasks_opt ?pool
       (tasks ?scale ?seed ?senders ?blocks ()))

let table rows =
  Exp_common.
    {
      title =
        "Fig. 10 - incast goodput (1 Gbps, 100 us RTT, 64 KB switch buffer; \
         Mbps)";
      header = [ "block KB"; "senders"; "PCC"; "TCP"; "PCC/TCP" ];
      rows =
        List.map
          (fun r ->
            [
              string_of_int (r.block / 1024);
              string_of_int r.senders;
              mbps r.pcc;
              mbps r.tcp;
              f1 (ratio r.pcc r.tcp);
            ])
          rows;
      note =
        Some
          "Paper: with >=10 senders PCC holds 60-80% of line rate, 7-8x \
           TCP, and stays flat as senders increase.";
    }
