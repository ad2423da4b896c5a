open Pcc_sim
open Pcc_net

type kind =
  | Blackout of { duration : float }
  | Loss_burst of { duration : float; loss : float }
  | Bandwidth_cliff of { duration : float; factor : float }
  | Bandwidth_flap of { count : int; period : float; factor : float }
  | Delay_spike of { duration : float; extra : float }
  | Jitter_burst of { duration : float; jitter : float }
  | Reverse_blackhole of { duration : float }
  | Reverse_loss_burst of { duration : float; loss : float }
  | Duplication_episode of { duration : float; prob : float }
  | Reordering_episode of { duration : float; prob : float; extra : float }
  | Partition of { duration : float; hop : int }

type event = { at : float; kind : kind }
type schedule = event list

let at time kind =
  if time < 0. then invalid_arg "Fault.at: time must be non-negative";
  { at = time; kind }

let duration = function
  | Blackout { duration }
  | Loss_burst { duration; _ }
  | Bandwidth_cliff { duration; _ }
  | Delay_spike { duration; _ }
  | Jitter_burst { duration; _ }
  | Reverse_blackhole { duration }
  | Reverse_loss_burst { duration; _ }
  | Duplication_episode { duration; _ }
  | Reordering_episode { duration; _ }
  | Partition { duration; _ } -> duration
  | Bandwidth_flap { count; period; _ } -> float_of_int count *. period

let describe = function
  | Blackout { duration } -> Printf.sprintf "blackout %.2fs" duration
  | Loss_burst { duration; loss } ->
    Printf.sprintf "loss-burst p=%.2f %.2fs" loss duration
  | Bandwidth_cliff { duration; factor } ->
    Printf.sprintf "bw-cliff x%.2f %.2fs" factor duration
  | Bandwidth_flap { count; period; factor } ->
    Printf.sprintf "bw-flap x%.2f %dx%.2fs" factor count period
  | Delay_spike { duration; extra } ->
    Printf.sprintf "delay-spike +%.0fms %.2fs" (extra *. 1e3) duration
  | Jitter_burst { duration; jitter } ->
    Printf.sprintf "jitter-burst %.0fms %.2fs" (jitter *. 1e3) duration
  | Reverse_blackhole { duration } ->
    Printf.sprintf "rev-blackhole %.2fs" duration
  | Reverse_loss_burst { duration; loss } ->
    Printf.sprintf "rev-loss p=%.2f %.2fs" loss duration
  | Duplication_episode { duration; prob } ->
    Printf.sprintf "duplication p=%.2f %.2fs" prob duration
  | Reordering_episode { duration; prob; extra } ->
    Printf.sprintf "reordering p=%.2f +%.0fms %.2fs" prob (extra *. 1e3)
      duration
  | Partition { duration; hop } ->
    Printf.sprintf "partition hop=%d %.2fs" hop duration

let window ev = (ev.at, ev.at +. duration ev.kind)

let windows sched =
  List.map (fun ev -> (describe ev.kind, ev.at, ev.at +. duration ev.kind)) sched

let pp_event fmt ev =
  Format.fprintf fmt "t=%-8.2f %s" ev.at (describe ev.kind)

let pp_schedule fmt sched =
  List.iter (fun ev -> Format.fprintf fmt "%a@." pp_event ev) sched

(* ------------------------------------------------------------------ *)
(* Targets *)

type target = {
  engine : Engine.t;
  links : Link.t array;
  set_rev_loss : float -> unit;
  rev_loss : unit -> float;
}

let target_of_topology ?links:ids topo =
  let links =
    match ids with
    | None -> Topology.links topo
    | Some ids ->
      Array.of_list (List.map (fun id -> Topology.link_at topo id) ids)
  in
  {
    engine = Topology.engine topo;
    links;
    set_rev_loss = Topology.set_rev_loss topo;
    rev_loss = (fun () -> Topology.rev_loss topo);
  }

(* ------------------------------------------------------------------ *)
(* Compilation onto engine timers *)

(* Each fault snapshots the knob it perturbs at onset and restores that
   snapshot when it ends, so a schedule of non-overlapping faults composes
   with a baseline impairment (e.g. standing 1% loss). Overlapping faults
   on the same knob have last-restorer-wins semantics; {!chaos} generates
   non-overlapping schedules by construction. *)

let apply_event tgt ev =
  let engine = tgt.engine in
  let each f = Array.iter f tgt.links in
  let on_all_links ~at:t0 ~duration ~apply ~restore =
    Engine.post engine ~at:t0 (fun () ->
        let saved = Array.map (fun l -> restore l) tgt.links in
        each apply;
        Engine.post engine ~at:(t0 +. duration) (fun () ->
            Array.iteri (fun i l -> saved.(i) l) tgt.links))
  in
  match ev.kind with
  | Blackout { duration } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_loss l 1.)
      ~restore:(fun l ->
        let saved = Link.loss l in
        fun l -> Link.set_loss l saved)
  | Loss_burst { duration; loss } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_loss l loss)
      ~restore:(fun l ->
        let saved = Link.loss l in
        fun l -> Link.set_loss l saved)
  | Bandwidth_cliff { duration; factor } ->
    let factor = Float.max 1e-6 factor in
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_bandwidth l (Link.bandwidth l *. factor))
      ~restore:(fun l ->
        let saved = Link.bandwidth l in
        fun l -> Link.set_bandwidth l saved)
  | Bandwidth_flap { count; period; factor } ->
    let factor = Float.max 1e-6 factor in
    for i = 0 to count - 1 do
      let t0 = ev.at +. (float_of_int i *. period) in
      on_all_links ~at:t0 ~duration:(period /. 2.)
        ~apply:(fun l -> Link.set_bandwidth l (Link.bandwidth l *. factor))
        ~restore:(fun l ->
          let saved = Link.bandwidth l in
          fun l -> Link.set_bandwidth l saved)
    done
  | Delay_spike { duration; extra } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_delay l (Link.delay l +. extra))
      ~restore:(fun l ->
        let saved = Link.delay l in
        fun l -> Link.set_delay l saved)
  | Jitter_burst { duration; jitter } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_jitter l jitter)
      ~restore:(fun l ->
        let saved = Link.jitter l in
        fun l -> Link.set_jitter l saved)
  | Reverse_blackhole { duration } ->
    Engine.post engine ~at:ev.at (fun () ->
        let saved = tgt.rev_loss () in
        tgt.set_rev_loss 1.;
        Engine.post engine ~at:(ev.at +. duration) (fun () ->
            tgt.set_rev_loss saved))
  | Reverse_loss_burst { duration; loss } ->
    Engine.post engine ~at:ev.at (fun () ->
        let saved = tgt.rev_loss () in
        tgt.set_rev_loss loss;
        Engine.post engine ~at:(ev.at +. duration) (fun () ->
            tgt.set_rev_loss saved))
  | Duplication_episode { duration; prob } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_duplication l prob)
      ~restore:(fun _ -> fun l -> Link.set_duplication l 0.)
  | Reordering_episode { duration; prob; extra } ->
    on_all_links ~at:ev.at ~duration
      ~apply:(fun l -> Link.set_reordering l ~prob ~extra)
      ~restore:(fun _ -> fun l -> Link.set_reordering l ~prob:0. ~extra:0.)
  | Partition { duration; hop } ->
    if hop < 0 || hop >= Array.length tgt.links then
      invalid_arg
        (Printf.sprintf "Fault.inject: partition hop %d outside [0,%d)" hop
           (Array.length tgt.links));
    let link = tgt.links.(hop) in
    Engine.post engine ~at:ev.at (fun () ->
        let saved = Link.loss link in
        Link.set_loss link 1.;
        Engine.post engine ~at:(ev.at +. duration) (fun () ->
            Link.set_loss link saved))

let inject tgt sched = List.iter (apply_event tgt) sched

(* ------------------------------------------------------------------ *)
(* Seeded chaos generator *)

let draw_kind rng =
  match Rng.int rng 8 with
  | 0 -> Blackout { duration = Rng.uniform rng 0.5 2. }
  | 1 ->
    Loss_burst
      { duration = Rng.uniform rng 1. 3.; loss = Rng.uniform rng 0.05 0.3 }
  | 2 ->
    Bandwidth_cliff
      { duration = Rng.uniform rng 2. 5.; factor = Rng.uniform rng 0.1 0.5 }
  | 3 ->
    Bandwidth_flap
      {
        count = 2 + Rng.int rng 3;
        period = Rng.uniform rng 0.5 1.5;
        factor = Rng.uniform rng 0.1 0.5;
      }
  | 4 ->
    Delay_spike
      {
        duration = Rng.uniform rng 1. 3.;
        extra = Rng.uniform rng 0.02 0.1;
      }
  | 5 ->
    Jitter_burst
      {
        duration = Rng.uniform rng 1. 3.;
        jitter = Rng.uniform rng 0.005 0.02;
      }
  | 6 -> Reverse_blackhole { duration = Rng.uniform rng 0.5 1.5 }
  | _ ->
    Reordering_episode
      {
        duration = Rng.uniform rng 1. 3.;
        prob = Rng.uniform rng 0.05 0.2;
        extra = Rng.uniform rng 0.01 0.05;
      }

let kind_duration = duration

let chaos ~rng ?(rate = 0.1) ?(start = 5.) ?(gap = 4.) ?kinds ~duration () =
  if rate <= 0. then invalid_arg "Fault.chaos: rate must be positive";
  if gap < 0. then invalid_arg "Fault.chaos: gap must be non-negative";
  let next_kind =
    match kinds with
    | None -> fun () -> draw_kind rng
    | Some [||] -> invalid_arg "Fault.chaos: empty kind pool"
    | Some pool -> fun () -> Rng.pick rng pool
  in
  (* Poisson arrivals, pushed apart so that one fault ends (plus a
     recovery gap) before the next begins — keeps per-fault recovery
     measurable and restoration semantics trivial. *)
  let rec grow acc t =
    let arrival = t +. Rng.exponential rng (1. /. rate) in
    let kind = next_kind () in
    let d = kind_duration kind in
    if arrival +. d > duration then List.rev acc
    else grow ({ at = arrival; kind } :: acc) (arrival +. d +. gap)
  in
  grow [] (Float.max 0. start)
