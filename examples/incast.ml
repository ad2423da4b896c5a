(* Data-center incast (§4.1.8): 30 senders answer a barrier-synchronized
   request with 128 KB each over a 1 Gbps fabric with a shallow switch
   buffer. TCP collapses on 200 ms RTO stalls; PCC keeps the link busy.

     dune exec examples/incast.exe                                         *)

open Pcc_sim
open Pcc_scenario

let round name spec =
  let engine = Engine.create () in
  let rng = Rng.create 3 in
  let senders = 30 and block = 128 * 1024 in
  let jitter = Rng.create 4 in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth:(Units.gbps 1.) ~rtt:0.0001
      ~buffer:65536
      ~flows:
        (List.init senders (fun _ ->
             Topology.flow ~route:[ 0; 1 ]
               ~start_at:(Rng.uniform jitter 0. 0.0005)
               ~size:block spec))
      ()
  in
  Engine.run ~until:5. engine;
  let worst =
    Array.fold_left
      (fun acc f ->
        match f.Topology.fct with Some fct -> Float.max acc fct | None -> 5.0)
      0. (Topology.flows topo)
  in
  let goodput = float_of_int (senders * block * 8) /. worst in
  Printf.printf "%-6s all %d responses in %6.1f ms -> %7.1f Mbps goodput\n"
    name senders (worst *. 1e3) (goodput /. 1e6);
  goodput

let () =
  Printf.printf
    "Incast: 30 senders x 128 KB to one receiver, 1 Gbps, 64 KB buffer\n\n";
  let pcc = round "PCC" (Transport.pcc ()) in
  let tcp = round "TCP" (Transport.tcp "newreno") in
  Printf.printf "\nPCC/TCP goodput ratio: %.1fx (paper: 7-8x with >=10 senders)\n"
    (pcc /. tcp)
