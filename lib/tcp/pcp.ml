open Pcc_sim
open Pcc_net

let init_rate = Units.mbps 1.
let max_rate = Units.gbps 10.
let train_len = 10
let first_probe = 0.01

(* Float-only, so OCaml stores them unboxed and an ack writes them with a
   plain store. Valid once the probe has [acks > 0]. *)
type ack_times = { mutable first_ack : float; mutable last_ack : float }

type probe = {
  target : float;  (* probed rate, bps *)
  first_seq : int;
  last_seq : int;  (* inclusive; train is [first_seq, last_seq] *)
  times : ack_times;
  mutable acks : int;
  mutable lost : bool;
}

(* Float-only, as [ack_times]. *)
type rates = { mutable base_rate : float; mutable ceiling : float }

let create engine ?size ?on_complete ~out () =
  let core, pacer =
    Rate_sender.create engine ~rate:init_rate ~srtt:0.1 ?size ~out ()
  in
  let sb = Rate_sender.scoreboard core in
  let r = { base_rate = init_rate; ceiling = max_rate } in
  let probe : probe option ref = ref None in
  let probe_left = ref 0 in
  let on_send _ =
    if !probe_left > 0 then begin
      decr probe_left;
      if !probe_left = 0 then
        (* Train fully emitted: fall back to the base rate while the acks
           come home. *)
        Rate_pacer.set_rate pacer r.base_rate
    end
  in
  let next_target () =
    if r.ceiling > r.base_rate *. 1.9 then
      Float.min max_rate (r.base_rate *. 2.)
    else if r.ceiling > r.base_rate *. 1.1 then
      (* Binary search between what worked and what did not. *)
      (r.base_rate +. r.ceiling) /. 2.
    else r.base_rate *. 1.05
  in
  let conclude_probe (p : probe) success =
    if success then begin
      r.base_rate <- Float.min max_rate p.target;
      (* Forget the old ceiling slowly so PCP keeps re-probing upward. *)
      if r.ceiling < r.base_rate *. 2. then r.ceiling <- r.base_rate *. 4.
    end
    else r.ceiling <- p.target;
    probe := None;
    Rate_pacer.set_rate pacer r.base_rate
  in
  let evaluate_probe (p : probe) =
    if p.acks >= max 2 (train_len - 2) && not p.lost then begin
      let measured_gap =
        (p.times.last_ack -. p.times.first_ack) /. float_of_int (p.acks - 1)
      in
      let sent_gap = float_of_int (Units.mss * 8) /. p.target in
      (* Success iff the train's dispersion did not grow: the available
         bandwidth sustained the probe rate without queueing. *)
      conclude_probe p (measured_gap <= sent_gap *. 1.15)
    end
    else conclude_probe p false
  in
  let on_tick () =
    (if !probe = None then begin
       let target = next_target () in
       if target > r.base_rate *. 1.01 then begin
         let first_seq = Scoreboard.next_seq sb in
         let p =
           {
             target;
             first_seq;
             last_seq = first_seq + train_len - 1;
             times = { first_ack = 0.; last_ack = 0. };
             acks = 0;
             lost = false;
           }
         in
         probe := Some p;
         probe_left := train_len;
         Rate_pacer.set_rate pacer target;
         Rate_pacer.kick pacer;
         (* Deadline: if the acks never arrive, count as failure. *)
         let train_time = float_of_int (train_len * Units.mss * 8) /. target in
         Engine.post_in engine
           ~after:(train_time +. (3. *. Rate_sender.srtt core))
           (fun () ->
             match !probe with
             | Some p' when p' == p -> evaluate_probe p
             | Some _ | None -> ())
       end
     end);
    Float.max (2. *. Rate_sender.srtt core) 0.05
  in
  let on_ack (a : Packet.ack) _ =
    Rate_sender.smooth_srtt core a;
    match !probe with
    | Some p
      when a.Packet.acked_seq >= p.first_seq
           && a.Packet.acked_seq <= p.last_seq ->
      let now = Engine.now engine in
      if p.acks = 0 then p.times.first_ack <- now;
      p.times.last_ack <- now;
      p.acks <- p.acks + 1;
      if a.Packet.acked_seq = p.last_seq then evaluate_probe p
    | Some _ | None -> ()
  in
  let on_losses losses =
    (match !probe with
    | Some p
      when List.exists (fun s -> s >= p.first_seq && s <= p.last_seq) losses
      -> p.lost <- true
    | Some _ | None -> ());
    r.base_rate <- Float.max (Units.kbps 100.) (r.base_rate *. 0.8);
    if !probe = None then Rate_pacer.set_rate pacer r.base_rate
  in
  Rate_sender.sender ?on_complete core pacer ~name:"pcp"
    ~on_start:(fun () -> first_probe)
    ~on_stop:ignore ~on_send ~on_ack ~on_losses ~on_tick ~stale_rtts:4.
    ~on_stale:ignore
    ~rate:(fun () -> r.base_rate)
