(* Flat SACK scoreboard.

   Sequence numbers are dense (allocated 0,1,2,... by [fresh_seq]), so
   per-sequence tracking lives in directly-indexed flat arrays instead
   of [Set]/[Hashtbl]: one state byte and one send-time float per
   sequence. Memory is O(total sequences sent) per flow rather than
   O(window); at 9 bytes per packet a 60-second gigabit flow costs a
   few megabytes, which the many-flow experiments bound by giving each
   flow a finite transfer.

   State byte, per sequence: the low two bits are the tracking kind
   (0 untracked, 1 outstanding, 2 SACKed above the cumulative ack);
   bit 2 flags membership in the retransmission queue and bit 3 in the
   loss-candidate heap. [sent_at] keeps the last transmission time and
   is only consulted for sequences currently outstanding.

   Loss candidates are the outstanding sequences at or below
   [highest_sacked - dupthresh]. A sequence enters when the SACK
   frontier passes it (each advance scans only the newly covered band,
   so the scan is amortized O(1) per sequence) or when it is (re)sent
   below the frontier. Candidates sit in a binary min-heap keyed on
   their send time at insertion, so [detect_losses] pops only entries
   old enough to be due and an ack with nothing due costs one compare.
   Entries are deleted lazily: a popped sequence that resolved is
   dropped, one re-sent since insertion (its key is stale) is pushed
   back under its current send time. Keys never exceed the current
   send time, so an entry whose key is not yet due cannot hide a due
   sequence.

   Stale sweeps and go-back-N are byte scans from [min_out], a cursor
   below which no sequence is outstanding; both run on timers, not
   acks. *)

type t = {
  dupthresh : int;
  mutable high_ack : int;
  mutable highest_sacked : int;
  mutable state : Bytes.t;
  mutable sent_at : float array;
  mutable min_out : int;  (* no outstanding sequence lies below this *)
  mutable inflight : int;
  mutable cand_seq : int array;  (* heap of loss candidates ... *)
  mutable cand_key : float array;  (* ... keyed on send time at insertion *)
  mutable cand_len : int;
  retx_q : int Queue.t;
  mutable next : int;
  mutable limit : int option;
  mutable acked_pkts : int;
}

let initial_cap = 256

let create ?(dupthresh = 3) () =
  {
    dupthresh;
    high_ack = -1;
    highest_sacked = -1;
    state = Bytes.make initial_cap '\000';
    sent_at = Array.make initial_cap 0.;
    min_out = 0;
    inflight = 0;
    cand_seq = Array.make 16 0;
    cand_key = Array.make 16 0.;
    cand_len = 0;
    retx_q = Queue.create ();
    next = 0;
    limit = None;
    acked_pkts = 0;
  }

let ensure t seq =
  let cap = Bytes.length t.state in
  if seq >= cap then begin
    let ncap = ref (cap * 2) in
    while seq >= !ncap do
      ncap := !ncap * 2
    done;
    let nstate = Bytes.make !ncap '\000' in
    Bytes.blit t.state 0 nstate 0 cap;
    t.state <- nstate;
    let nsent = Array.make !ncap 0. in
    Array.blit t.sent_at 0 nsent 0 cap;
    t.sent_at <- nsent
  end

let bits t seq = Char.code (Bytes.unsafe_get t.state seq)
let set_bits t seq b = Bytes.unsafe_set t.state seq (Char.unsafe_chr b)
let kind t seq = bits t seq land 3
let set_kind t seq k = set_bits t seq (bits t seq land lnot 3 lor k)

(* Place [seq] with [key] at the root of the heap's first [n] entries,
   sifting it down. *)
let sift_down t n seq key =
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        if l + 1 < n && t.cand_key.(l + 1) < t.cand_key.(l) then l + 1 else l
      in
      if t.cand_key.(c) < key then begin
        t.cand_seq.(!i) <- t.cand_seq.(c);
        t.cand_key.(!i) <- t.cand_key.(c);
        i := c
      end
      else continue := false
    end
  done;
  t.cand_seq.(!i) <- seq;
  t.cand_key.(!i) <- key

(* Make [seq] a loss candidate keyed on [key] unless it already is. *)
let track t seq key =
  let b = bits t seq in
  if b land 8 = 0 then begin
    set_bits t seq (b lor 8);
    let n = t.cand_len in
    if n = Array.length t.cand_seq then begin
      let nseq = Array.make (2 * n) 0 and nkey = Array.make (2 * n) 0. in
      Array.blit t.cand_seq 0 nseq 0 n;
      Array.blit t.cand_key 0 nkey 0 n;
      t.cand_seq <- nseq;
      t.cand_key <- nkey
    end;
    let i = ref n in
    while !i > 0 && t.cand_key.((!i - 1) / 2) > key do
      let p = (!i - 1) / 2 in
      t.cand_seq.(!i) <- t.cand_seq.(p);
      t.cand_key.(!i) <- t.cand_key.(p);
      i := p
    done;
    t.cand_seq.(!i) <- seq;
    t.cand_key.(!i) <- key;
    t.cand_len <- n + 1
  end

(* Remove the heap's minimum, whose sequence leaves the candidate set. *)
let pop_candidate t =
  let seq = t.cand_seq.(0) in
  set_bits t seq (bits t seq land lnot 8);
  let n = t.cand_len - 1 in
  t.cand_len <- n;
  if n > 0 then sift_down t n t.cand_seq.(n) t.cand_key.(n)

let limit_pkts t n = t.limit <- Some n

let fresh_seq t =
  match t.limit with
  | Some n when t.next >= n -> None
  | Some _ | None ->
    let seq = t.next in
    t.next <- seq + 1;
    ensure t seq;
    Some seq

(* All sequences reaching the scoreboard were issued by [fresh_seq], so
   they are below [next] and in capacity after [ensure] at issue time. *)
let delivered t seq = seq <= t.high_ack || kind t seq = 2

let record_send t seq ~now =
  ensure t seq;
  t.sent_at.(seq) <- now;
  if (not (delivered t seq)) && kind t seq <> 1 then begin
    set_kind t seq 1;
    t.inflight <- t.inflight + 1;
    if seq < t.min_out then t.min_out <- seq;
    if seq <= t.highest_sacked - t.dupthresh then track t seq now
  end

let remove_outstanding t seq =
  if kind t seq = 1 then begin
    set_kind t seq 0;
    t.inflight <- t.inflight - 1
  end

let on_ack t (a : Packet.ack) =
  let newly = ref [] in
  let old_hs = t.highest_sacked in
  let seq = a.Packet.acked_seq in
  ensure t seq;
  if seq > t.high_ack && kind t seq <> 2 then begin
    newly := seq :: !newly;
    remove_outstanding t seq;
    set_kind t seq 2;
    if seq > t.highest_sacked then t.highest_sacked <- seq
  end;
  if a.Packet.cum_ack > t.high_ack then begin
    (* Sequences covered only by the cumulative ack were delivered even if
       their own acks were lost on the reverse path. *)
    ensure t a.Packet.cum_ack;
    for s = t.high_ack + 1 to a.Packet.cum_ack do
      if kind t s = 2 then set_kind t s 0 (* now covered by [high_ack] *)
      else begin
        newly := s :: !newly;
        remove_outstanding t s
      end
    done;
    t.high_ack <- a.Packet.cum_ack
  end;
  (* Outstanding sequences the SACK frontier just passed become loss
     candidates. *)
  for s = max (t.high_ack + 1) (old_hs - t.dupthresh + 1)
      to t.highest_sacked - t.dupthresh do
    if kind t s = 1 then track t s t.sent_at.(s)
  done;
  t.acked_pkts <- t.acked_pkts + List.length !newly;
  List.rev !newly

let queue_retx t seq =
  let b = bits t seq in
  if b land 4 = 0 then begin
    set_bits t seq (b lor 4);
    Queue.push seq t.retx_q
  end

(* Advance the outstanding cursor past resolved sequences. *)
let advance_min_out t =
  while t.min_out < t.next && kind t t.min_out <> 1 do
    t.min_out <- t.min_out + 1
  done

let detect_losses ?(highest_first = false) t ~now ~min_age =
  (* Age guard: a hole below the SACK threshold only counts as lost if its
     last transmission is old enough that its ack would have arrived. This
     is what keeps a just-retransmitted low sequence (necessarily below
     [highest_sacked - dupthresh]) from being re-marked lost on every
     subsequent ack — the spurious-retransmission storm. The predicate is
     monotone in the send time, so popping while the minimum key is due
     finds every due candidate. *)
  let lost = ref [] in
  while t.cand_len > 0 && now -. t.cand_key.(0) >= min_age do
    let seq = t.cand_seq.(0) in
    if kind t seq <> 1 then pop_candidate t
    else if now -. t.sent_at.(seq) >= min_age then begin
      pop_candidate t;
      remove_outstanding t seq;
      lost := seq :: !lost
    end
    else sift_down t t.cand_len seq t.sent_at.(seq)
  done;
  let lost = List.sort Int.compare !lost in
  List.iter (queue_retx t) (if highest_first then List.rev lost else lost);
  lost

let mark_lost t seq ~now ~min_age =
  if
    kind t seq = 1
    && now -. t.sent_at.(seq) >= min_age
  then begin
    remove_outstanding t seq;
    queue_retx t seq;
    true
  end
  else false

let sweep_stale t ~now ~min_age =
  let stale = ref [] in
  advance_min_out t;
  for seq = t.min_out to t.next - 1 do
    if kind t seq = 1 && now -. t.sent_at.(seq) >= min_age then
      stale := seq :: !stale
  done;
  List.iter
    (fun seq ->
      remove_outstanding t seq;
      queue_retx t seq)
    !stale;
  List.rev !stale

let go_back_n t =
  advance_min_out t;
  for seq = t.min_out to t.next - 1 do
    if kind t seq = 1 then begin
      remove_outstanding t seq;
      queue_retx t seq
    end
  done

let rec take_retx t =
  match Queue.take_opt t.retx_q with
  | None -> None
  | Some seq ->
    set_bits t seq (bits t seq land lnot 4);
    if delivered t seq then take_retx t else Some seq

let has_retx t =
  (* Cheap check; stale entries are filtered at take time. *)
  not (Queue.is_empty t.retx_q)

let has_data t =
  has_retx t
  || match t.limit with Some n -> t.next < n | None -> true

let high_ack t = t.high_ack
let inflight t = t.inflight
let acked_pkts t = t.acked_pkts
let next_seq t = t.next

let complete t =
  match t.limit with Some n -> t.high_ack >= n - 1 | None -> false
