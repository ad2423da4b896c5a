(* Flat SACK scoreboard.

   Sequence numbers are dense (allocated 0,1,2,... by [fresh_seq]), so
   per-sequence tracking lives in flat rings over the live window
   [[high_ack + 1, next)] (see [Seq_window]) instead of [Set]/[Hashtbl]:
   one state byte and one send-time float per sequence, so memory
   follows the window, not the sequences sent. Sequences below the
   ring are delivered; stale retransmission-queue and heap entries
   naming them are dropped without touching a slot.

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

   Stale sweeps and go-back-N are byte scans of the window; both run on
   timers, not acks. *)

type t = {
  dupthresh : int;
  mutable high_ack : int;
  mutable highest_sacked : int;
  win : Seq_window.t;  (* ring index of [state] and [sent_at] *)
  mutable state : Bytes.t;
  mutable sent_at : float array;
  mutable inflight : int;
  mutable cand_seq : int array;  (* heap of loss candidates ... *)
  mutable cand_key : float array;  (* ... keyed on send time at insertion *)
  mutable cand_len : int;
  retx_q : int Queue.t;
  mutable next : int;
  mutable limit : int option;
  mutable acked_pkts : int;
}

let create ?(dupthresh = 3) () =
  {
    dupthresh;
    high_ack = -1;
    highest_sacked = -1;
    win = Seq_window.create 16;
    state = Bytes.make 16 '\000';
    sent_at = Array.make 16 0.;
    inflight = 0;
    cand_seq = [||];
    cand_key = [||];
    cand_len = 0;
    retx_q = Queue.create ();
    next = 0;
    limit = None;
    acked_pkts = 0;
  }

(* Ring membership and index, inline: the per-packet path makes no call. *)
let[@inline] in_ring t seq = (seq - t.win.base) land lnot t.win.mask = 0
let[@inline] slot t seq = seq land t.win.mask

let make_room t seq =
  let state = t.state and sent_at = t.sent_at in
  Seq_window.reserve t.win seq ~floor:(t.high_ack + 1)
    ~clear:(fun p n -> Bytes.fill state p n '\000')
    ~grow:(fun cap ->
      t.state <- Bytes.make cap '\000';
      t.sent_at <- Array.make cap 0.)
    ~move:(fun src dst n ->
      Bytes.blit state src t.state dst n;
      Array.blit sent_at src t.sent_at dst n)

let[@inline] reserve t seq = if not (in_ring t seq) then make_room t seq

(* Only members are read or written. Every sequence below [next] is
   either a member or at most [high_ack], so callers holding a sequence
   that may have been delivered since (the retransmission queue, the
   candidate heap, the monitor's losses) test [high_ack] first. *)
let[@inline] bits t seq = Char.code (Bytes.unsafe_get t.state (slot t seq))

let[@inline] set_bits t seq b =
  Bytes.unsafe_set t.state (slot t seq) (Char.unsafe_chr b)

let[@inline] kind t seq = bits t seq land 3
let[@inline] set_kind t seq k = set_bits t seq (bits t seq land lnot 3 lor k)
let[@inline] sent_at t seq = t.sent_at.(slot t seq)

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
      let cap = Int.max 16 (2 * n) in
      let nseq = Array.make cap 0 and nkey = Array.make cap 0. in
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
  if in_ring t seq then set_bits t seq (bits t seq land lnot 8);
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
    reserve t seq;
    Some seq

let delivered t seq = seq <= t.high_ack || kind t seq = 2

let record_send t seq ~now =
  if seq > t.high_ack then begin
    reserve t seq;
    t.sent_at.(slot t seq) <- now;
    if kind t seq = 0 then begin
      set_kind t seq 1;
      t.inflight <- t.inflight + 1;
      if seq <= t.highest_sacked - t.dupthresh then track t seq now
    end
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
  if seq > t.high_ack then begin
    reserve t seq;
    if kind t seq <> 2 then begin
      newly := seq :: !newly;
      remove_outstanding t seq;
      set_kind t seq 2;
      if seq > t.highest_sacked then t.highest_sacked <- seq
    end
  end;
  if a.Packet.cum_ack > t.high_ack then begin
    (* Sequences covered only by the cumulative ack were delivered even if
       their own acks were lost on the reverse path. *)
    reserve t a.Packet.cum_ack;
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
    if kind t s = 1 then track t s (sent_at t s)
  done;
  t.acked_pkts <- t.acked_pkts + List.length !newly;
  List.rev !newly

let queue_retx t seq =
  let b = bits t seq in
  if b land 4 = 0 then begin
    set_bits t seq (b lor 4);
    Queue.push seq t.retx_q
  end

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
    if seq <= t.high_ack || kind t seq <> 1 then pop_candidate t
    else if now -. sent_at t seq >= min_age then begin
      pop_candidate t;
      remove_outstanding t seq;
      lost := seq :: !lost
    end
    else sift_down t t.cand_len seq (sent_at t seq)
  done;
  (* Pops come in send-time order, which is nearly always sequence
     order, so the consed list is usually strictly descending already;
     sort only when a retransmission interleaves. *)
  let rec descending = function
    | a :: (b :: _ as rest) -> a > b && descending rest
    | [ _ ] | [] -> true
  in
  let down = !lost in
  let sorted = descending down in
  let up = if sorted then List.rev down else List.sort Int.compare down in
  List.iter (queue_retx t)
    (if not highest_first then up else if sorted then down else List.rev up);
  up

let mark_lost t seq ~now ~min_age =
  if seq > t.high_ack && kind t seq = 1 && now -. sent_at t seq >= min_age
  then begin
    remove_outstanding t seq;
    queue_retx t seq;
    true
  end
  else false

let sweep_stale t ~now ~min_age =
  let stale = ref [] in
  for seq = t.high_ack + 1 to t.next - 1 do
    if kind t seq = 1 && now -. sent_at t seq >= min_age then
      stale := seq :: !stale
  done;
  List.iter
    (fun seq ->
      remove_outstanding t seq;
      queue_retx t seq)
    !stale;
  List.rev !stale

let go_back_n t =
  for seq = t.high_ack + 1 to t.next - 1 do
    if kind t seq = 1 then begin
      remove_outstanding t seq;
      queue_retx t seq
    end
  done

let rec take_retx t =
  match Queue.take_opt t.retx_q with
  | None -> None
  | Some seq ->
    if in_ring t seq then set_bits t seq (bits t seq land lnot 4);
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
