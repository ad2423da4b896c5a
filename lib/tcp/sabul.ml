open Pcc_sim
open Pcc_net

let syn_period = 0.01
let init_rate = Units.mbps 1.
let max_rate = Units.gbps 10.

(* Float-only, so OCaml stores it unboxed: the per-ack writes are plain
   stores. Ack-rate based capacity estimate: peak packets/sec over short
   bins. *)
type est = { mutable bin_start : float; mutable capacity_est : float }

let create engine ~rng ?size ?on_complete ~out () =
  let core, p =
    Rate_sender.create engine ~rate:init_rate ~srtt:0.1 ?size ~out ()
  in
  let sb = Rate_sender.scoreboard core in
  let est = { bin_start = 0.; capacity_est = init_rate } in
  let bin_count = ref 0 in
  let loss_since_syn = ref false in
  let last_dec_seq = ref (-1) in
  let on_ack a _ =
    Rate_sender.smooth_srtt core a;
    (* Update the bandwidth estimate from ack arrival rate. *)
    let now = Engine.now engine in
    if est.bin_start = 0. then est.bin_start <- now;
    incr bin_count;
    if now -. est.bin_start >= 0.05 then begin
      let rate_bps =
        float_of_int (!bin_count * Units.mss) *. 8. /. (now -. est.bin_start)
      in
      if rate_bps > est.capacity_est then est.capacity_est <- rate_bps
      else est.capacity_est <- (0.98 *. est.capacity_est) +. (0.02 *. rate_bps);
      est.bin_start <- now;
      bin_count := 0
    end
  in
  let cut () =
    Rate_pacer.set_rate p
      (Float.max (Units.kbps 100.) (Rate_pacer.rate p *. 8. /. 9.))
  in
  let on_losses losses =
    loss_since_syn := true;
    (* UDT decreases by 1/9 on the first NAK of a congestion epoch, then
       again with some probability on further NAKs of the same epoch — a
       burst of losses produces the deep fallback the paper observes. *)
    if List.hd losses > !last_dec_seq then begin
      cut ();
      last_dec_seq := Scoreboard.next_seq sb
    end
    else if Rng.bernoulli rng 0.08 then cut ()
  in
  let on_tick () =
    if not !loss_since_syn then begin
      (* Rate increase per SYN, scaled by the bandwidth estimate like
         UDT's: an aggressive ~5%-per-10ms ramp (calibrated so a clean
         gigabit link fills within seconds, as UDT does) that keeps
         probing past the estimate — producing the overshoot/deep-
         fallback cycle the paper describes. *)
      let c = Rate_pacer.rate p in
      (* 5% of the estimated spare capacity per SYN, with a floor that
         keeps probing past the estimate: fast exponential approach from
         below, persistent overshoot at the top — UDT's signature. *)
      let spare = Float.max (est.capacity_est -. c) 0. in
      let inc_bps = Float.max (0.05 *. spare) (Units.kbps 500.) in
      Rate_pacer.set_rate p (Float.min max_rate (c +. inc_bps))
    end;
    loss_since_syn := false;
    syn_period
  in
  Rate_sender.sender ?on_complete core p ~name:"sabul"
    ~on_start:(fun () -> syn_period)
    ~on_stop:ignore ~on_send:ignore ~on_ack ~on_losses ~on_tick ~stale_rtts:4.
    ~on_stale:ignore
    ~rate:(fun () -> Rate_pacer.rate p)
