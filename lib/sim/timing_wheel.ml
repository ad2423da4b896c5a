(* Hierarchical timing wheel over a flat slot-chained arena.

   Geometry: [levels] pages of [slots] slots each, one tick =
   [tick_seconds]. An event's tick is trunc(time / tick_seconds); level
   l slot j covers ticks with (tk lsr (bits*l)) land (slots-1) = j.
   Placement is page-aligned: an entry lives at the lowest level whose
   *page* (the bits above that level) matches the cursor's, so every
   stored index is strictly ahead of the cursor within its page and
   advancement never wraps a page or mixes epochs. With 16 bits per
   level the bottom page alone spans 65.5 simulated milliseconds, so
   the common scheduling horizon (packet deliveries, RTO timers) lands
   directly in level 0 and is chained exactly once before dispatch;
   only far-future timers pay a cascade, and there are at most two.
   Anything beyond the top page (>= 2^48 ticks ~ 3.26 simulated years
   ahead) waits in an overflow heap and is drained into the wheel when
   the cursor's epoch reaches it.

   Exact ordering contract: dispatch order is exactly (time, seq) — the
   same total order as {!Event_heap} — even though ticks quantize time.
   Every entry funnels through a small "ready" binary heap keyed on the
   exact event time (sequence number breaking ties): harvesting a
   level-0 slot moves entries whose tick equals the cursor into
   [ready], and a push at or before the cursor's tick goes straight
   there. Any entry still in the wheel has a tick strictly greater than
   the cursor, hence a time strictly greater than every ready entry's,
   so popping the ready minimum is globally minimal.

   The layout is built to minimize cache-line touches per event, which
   is what actually separates it from the binary heap at millions of
   pending events (the heap's sift loops chase ~log n scattered lines
   per pop):

   - arena entry i spans [times.(i)] plus two adjacent words of [meta]
     (chain link; sequence tagged with a has-handle bit) — the key
     arrays the hot paths touch sit in 2-3 lines per entry, and the
     LIFO free list hands clustered slots to clustered pushes, so
     chain walks run over dense lines;
   - the ready and overflow heaps copy (time, seq) next to the arena
     index, so their sift comparisons run over small unboxed arrays
     (L1-resident, no GC write barriers) instead of dereferencing the
     arena per compare;
   - slot occupancy is mirrored in a two-tier bitmap (32 slots per mask
     word, 32 mask words per summary bit; find-first-set by de Bruijn
     multiply), so advancing over sparse regions costs a handful of
     word reads, never a 65536-slot scan;
   - {!push_unit} queues an uncancellable event with no {!Handle}
     allocated at all — the packet-delivery events that dominate
     simulations pay zero allocation and never touch the handle array.

   Cancellation is lazy (shared {!Handle} state flip); dead entries are
   freed when a harvest or heap pop surfaces them. A workload that
   cancels far-future timers en masse could strand dead entries in
   never-visited slots, so pushes trigger a sweep (walking only
   occupied slots, via the bitmap) once dead entries outnumber live
   ones past a floor — amortized O(1). *)

type handle = Handle.t

let tick_seconds = 1e-6
let inv_tick = 1. /. tick_seconds
let bits = 16
let slots = 65536 (* 1 lsl bits *)
let levels = 3
let horizon_bits = bits * levels (* 48 *)
let mask_words = 2048 (* slots / 32 *)
let summary_words = 64 (* mask_words / 32 *)

(* A binary min-heap on (time, seq) with the arena index along for the
   ride. Keys are copied in so sift compares stay inside these unboxed
   arrays — no pointers, hence no GC write barrier per sift move. *)
type kheap = {
  mutable ktimes : float array;
  mutable kseqs : int array; (* tagged: (seq lsl 1) lor has-handle *)
  mutable kidx : int array;
  mutable klen : int;
}

type 'a t = {
  mutable times : float array;
  (* meta.(2i) = chain / free-list link (-1 ends);
     meta.(2i+1) = (seq lsl 1) lor 1-if-cancellable. *)
  mutable meta : int array;
  mutable handles : handle array; (* dummy for handleless entries *)
  mutable payloads : 'a array;
  dummy : 'a; (* seeds payload slack; freed slots reset to it *)
  mutable free : int; (* head of the arena free list *)
  mutable in_use : int; (* allocated arena slots (live + unswept dead) *)
  mutable next_seq : int;
  mutable cur : int; (* current tick: all wheel entries are beyond it *)
  heads : int array; (* levels * slots chain heads; -1 empty *)
  masks : int array; (* levels * mask_words occupancy bitmap, 32 b/word *)
  summary : int array; (* levels * summary_words: mask word <> 0 bits *)
  lvl_count : int array; (* entries stored per level *)
  ready : kheap;
  overflow : kheap;
  live : int ref;
}

let mk_kheap () = { ktimes = [||]; kseqs = [||]; kidx = [||]; klen = 0 }

(* [dummy] seeds the payload arena ([Array.make] needs a value of type
   ['a] before any payload exists) and replaces freed slots' payloads so
   the arena never pins a dropped value. Storing ['a] directly — rather
   than boxing each payload in an option-like wrapper — keeps push free
   of minor-heap allocation, which is measurable at millions of events
   per second. *)
let create ~dummy () =
  {
    times = [||];
    meta = [||];
    handles = [||];
    payloads = [||];
    dummy;
    free = -1;
    in_use = 0;
    next_seq = 0;
    cur = 0;
    heads = Array.make (levels * slots) (-1);
    masks = Array.make (levels * mask_words) 0;
    summary = Array.make (levels * summary_words) 0;
    lvl_count = Array.make levels 0;
    ready = mk_kheap ();
    overflow = mk_kheap ();
    live = ref 0;
  }

let is_empty t = !(t.live) = 0
let size t = !(t.live)

let tick_of_time time = int_of_float (time *. inv_tick)

(* Entry state, reading the handle only when one exists. *)
let entry_live t i =
  t.meta.((2 * i) + 1) land 1 = 0 || t.handles.(i).Handle.state = 0

(* ---- find-first-set ---------------------------------------------- *)

(* De Bruijn multiplication over 32-bit words: index of the lowest set
   bit of [w] (w <> 0, w < 2^32). The multiply must wrap at 32 bits,
   which native ints don't do on their own — hence the explicit mask. *)
let debruijn = 0x077CB531

let ctz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let ctz32 w = ctz_table.((((w land -w) * debruijn) land 0xFFFFFFFF) lsr 27)

(* ---- key heap ---------------------------------------------------- *)

let kh_push (h : kheap) time seq i =
  if h.klen >= Array.length h.kidx then begin
    let ncap = if h.klen = 0 then 64 else h.klen * 2 in
    let nt = Array.make ncap time in
    let ns = Array.make ncap seq in
    let ni = Array.make ncap i in
    Array.blit h.ktimes 0 nt 0 h.klen;
    Array.blit h.kseqs 0 ns 0 h.klen;
    Array.blit h.kidx 0 ni 0 h.klen;
    h.ktimes <- nt;
    h.kseqs <- ns;
    h.kidx <- ni
  end;
  let pos = ref h.klen in
  h.klen <- h.klen + 1;
  let continue = ref true in
  while !continue && !pos > 0 do
    let parent = (!pos - 1) / 2 in
    if
      time < h.ktimes.(parent)
      || (time = h.ktimes.(parent) && seq < h.kseqs.(parent))
    then begin
      h.ktimes.(!pos) <- h.ktimes.(parent);
      h.kseqs.(!pos) <- h.kseqs.(parent);
      h.kidx.(!pos) <- h.kidx.(parent);
      pos := parent
    end
    else continue := false
  done;
  h.ktimes.(!pos) <- time;
  h.kseqs.(!pos) <- seq;
  h.kidx.(!pos) <- i

(* Remove the root of a non-empty key heap. *)
let kh_remove_root (h : kheap) =
  h.klen <- h.klen - 1;
  if h.klen > 0 then begin
    let time = h.ktimes.(h.klen)
    and seq = h.kseqs.(h.klen)
    and i = h.kidx.(h.klen) in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !pos) + 1 in
      if l >= h.klen then continue := false
      else begin
        let r = l + 1 in
        let child =
          if
            r < h.klen
            && (h.ktimes.(r) < h.ktimes.(l)
               || (h.ktimes.(r) = h.ktimes.(l) && h.kseqs.(r) < h.kseqs.(l)))
          then r
          else l
        in
        if
          h.ktimes.(child) < time
          || (h.ktimes.(child) = time && h.kseqs.(child) < seq)
        then begin
          h.ktimes.(!pos) <- h.ktimes.(child);
          h.kseqs.(!pos) <- h.kseqs.(child);
          h.kidx.(!pos) <- h.kidx.(child);
          pos := child
        end
        else continue := false
      end
    done;
    h.ktimes.(!pos) <- time;
    h.kseqs.(!pos) <- seq;
    h.kidx.(!pos) <- i
  end

(* ---- arena ------------------------------------------------------- *)

let dummy_handle = Handle.make (ref 0)

let grow t =
  let cap = Array.length t.payloads in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let ntimes = Array.make ncap 0. in
  let nmeta = Array.make (2 * ncap) (-1) in
  let nhandles = Array.make ncap dummy_handle in
  let npayloads = Array.make ncap t.dummy in
  Array.blit t.times 0 ntimes 0 cap;
  Array.blit t.meta 0 nmeta 0 (2 * cap);
  Array.blit t.handles 0 nhandles 0 cap;
  Array.blit t.payloads 0 npayloads 0 cap;
  t.times <- ntimes;
  t.meta <- nmeta;
  t.handles <- nhandles;
  t.payloads <- npayloads;
  for i = ncap - 1 downto cap do
    nmeta.(2 * i) <- t.free;
    t.free <- i
  done

let alloc t time tagged_seq v =
  if t.free < 0 then grow t;
  let i = t.free in
  t.free <- t.meta.(2 * i);
  t.times.(i) <- time;
  t.meta.(2 * i) <- -1;
  t.meta.((2 * i) + 1) <- tagged_seq;
  t.payloads.(i) <- v;
  t.in_use <- t.in_use + 1;
  i

let free_slot t i =
  t.payloads.(i) <- t.dummy;
  if t.meta.((2 * i) + 1) land 1 = 1 then t.handles.(i) <- dummy_handle;
  t.meta.(2 * i) <- t.free;
  t.free <- i;
  t.in_use <- t.in_use - 1

(* ---- placement --------------------------------------------------- *)

let link_slot t level idx i =
  let cell = (level * slots) + idx in
  let head = t.heads.(cell) in
  t.meta.(2 * i) <- head;
  t.heads.(cell) <- i;
  if head < 0 then begin
    let w = (level * mask_words) + (idx lsr 5) in
    if t.masks.(w) = 0 then begin
      let sw = (level * summary_words) + (idx lsr 10) in
      t.summary.(sw) <- t.summary.(sw) lor (1 lsl ((idx lsr 5) land 31))
    end;
    t.masks.(w) <- t.masks.(w) lor (1 lsl (idx land 31))
  end;
  t.lvl_count.(level) <- t.lvl_count.(level) + 1

(* File arena entry [i] by its tick, relative to the current cursor:
   at or before the cursor -> ready heap; within the top page -> the
   lowest level whose page matches the cursor's; beyond -> overflow. *)
let place t i =
  let time = t.times.(i) in
  let tk = tick_of_time time in
  if tk <= t.cur then kh_push t.ready time t.meta.((2 * i) + 1) i
  else if tk lsr horizon_bits <> t.cur lsr horizon_bits then
    kh_push t.overflow time t.meta.((2 * i) + 1) i
  else begin
    let l = ref 0 in
    while tk lsr (bits * (!l + 1)) <> t.cur lsr (bits * (!l + 1)) do
      incr l
    done;
    let l = !l in
    link_slot t l ((tk lsr (bits * l)) land (slots - 1)) i
  end

(* ---- dead-entry sweep -------------------------------------------- *)

(* Clear the occupancy bit of an emptied slot (and its summary bit if
   the whole mask word emptied). *)
let clear_slot_bit t level idx =
  let w = (level * mask_words) + (idx lsr 5) in
  t.masks.(w) <- t.masks.(w) land lnot (1 lsl (idx land 31));
  if t.masks.(w) = 0 then begin
    let sw = (level * summary_words) + (idx lsr 10) in
    t.summary.(sw) <- t.summary.(sw) land lnot (1 lsl ((idx lsr 5) land 31))
  end

(* Walk only occupied slots (via the occupancy bitmap) and rebuild each
   chain keeping live entries. *)
let sweep_chains t =
  for level = 0 to levels - 1 do
    if t.lvl_count.(level) > 0 then
      for w = 0 to mask_words - 1 do
        let word = ref t.masks.((level * mask_words) + w) in
        while !word <> 0 do
          let b = ctz32 !word in
          word := !word land lnot (1 lsl b);
          let idx = (w lsl 5) lor b in
          let cell = (level * slots) + idx in
          let i = ref t.heads.(cell) in
          t.heads.(cell) <- -1;
          while !i >= 0 do
            let next = t.meta.(2 * !i) in
            if entry_live t !i then begin
              t.meta.(2 * !i) <- t.heads.(cell);
              t.heads.(cell) <- !i
            end
            else begin
              free_slot t !i;
              t.lvl_count.(level) <- t.lvl_count.(level) - 1
            end;
            i := next
          done;
          if t.heads.(cell) < 0 then clear_slot_bit t level idx
        done
      done
  done

let sweep_kheap t (h : kheap) =
  let kept = ref [] in
  for pos = 0 to h.klen - 1 do
    let i = h.kidx.(pos) in
    if entry_live t i then kept := (h.ktimes.(pos), h.kseqs.(pos), i) :: !kept
    else free_slot t i
  done;
  h.klen <- 0;
  List.iter (fun (time, seq, i) -> kh_push h time seq i) !kept

let maybe_sweep t =
  let dead = t.in_use - !(t.live) in
  if dead > 4096 && dead > t.in_use / 2 then begin
    sweep_chains t;
    sweep_kheap t t.ready;
    sweep_kheap t t.overflow
  end

(* ---- push -------------------------------------------------------- *)

let check_time time =
  (* Also rejects NaN. *)
  if not (time >= 0.) then
    invalid_arg "Timing_wheel.push: time must be non-negative"

let push t ~time v =
  check_time time;
  maybe_sweep t;
  let h = Handle.make t.live in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  incr t.live;
  let i = alloc t time ((seq lsl 1) lor 1) v in
  t.handles.(i) <- h;
  place t i;
  h

(* Uncancellable push: no handle is allocated or stored; the entry is
   live until dispatched. Ordering is identical to {!push} (same
   sequence counter). *)
let push_unit t ~time v =
  check_time time;
  maybe_sweep t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  incr t.live;
  let i = alloc t time (seq lsl 1) v in
  place t i

(* ---- advancement ------------------------------------------------- *)

(* Harvest the chain at slot [idx] of [level]: live entries go through
   [place] (which routes tick <= cur to ready), dead ones are freed. *)
let harvest t level idx =
  let cell = (level * slots) + idx in
  let i = ref t.heads.(cell) in
  t.heads.(cell) <- -1;
  clear_slot_bit t level idx;
  while !i >= 0 do
    let next = t.meta.(2 * !i) in
    t.lvl_count.(level) <- t.lvl_count.(level) - 1;
    if entry_live t !i then place t !i else free_slot t !i;
    i := next
  done

(* Lowest occupied slot index > [from] at [level], or -1. Two-tier
   scan: the partial mask word at [from], then the summary bitmap to
   jump straight to the next non-empty mask word. *)
let next_occupied t level from =
  let start = from + 1 in
  if start >= slots then -1
  else begin
    let base = level * mask_words in
    let w0 = start lsr 5 in
    let word = t.masks.(base + w0) land lnot ((1 lsl (start land 31)) - 1) in
    if word <> 0 then (w0 lsl 5) lor ctz32 word
    else begin
      let sbase = level * summary_words in
      let result = ref (-1) in
      let sw = ref ((w0 + 1) lsr 5) in
      let sfirst = !sw in
      while !result < 0 && !sw < summary_words do
        let sword = t.summary.(sbase + !sw) in
        let sword =
          if !sw = sfirst then
            sword land lnot ((1 lsl ((w0 + 1) land 31)) - 1)
          else sword
        in
        if sword <> 0 then begin
          let wi = (!sw lsl 5) lor ctz32 sword in
          (* Summary invariant: the flagged mask word is non-zero. *)
          result := (wi lsl 5) lor ctz32 t.masks.(base + wi)
        end
        else incr sw
      done;
      !result
    end
  end

(* Scan the rest of the cursor's level-0 page; harvest the first
   occupied slot into [ready]. True if a slot was harvested. *)
let try_level0 t =
  if t.lvl_count.(0) = 0 then false
  else begin
    match next_occupied t 0 (t.cur land (slots - 1)) with
    | -1 -> false
    | idx ->
      t.cur <- ((t.cur lsr bits) lsl bits) lor idx;
      harvest t 0 idx;
      true
  end

(* Find the lowest non-empty level >= 1, advance the cursor to its next
   occupied slot and cascade that slot down. True if one was found. *)
let cascade_lowest t =
  let rec level l =
    if l >= levels then false
    else if t.lvl_count.(l) = 0 then level (l + 1)
    else begin
      let cur_l = (t.cur lsr (bits * l)) land (slots - 1) in
      match next_occupied t l cur_l with
      | -1 ->
        (* Page-aligned placement guarantees a non-empty level has an
           entry ahead of the cursor within the current page. *)
        assert false
      | idx ->
        (* Jump the cursor to the start of that slot's tick range. *)
        t.cur <- ((t.cur lsr (bits * l)) + (idx - cur_l)) lsl (bits * l);
        harvest t l idx;
        true
    end
  in
  level 1

(* The wheel proper is empty: jump to the overflow's epoch and drain
   every overflow entry sharing it back through [place]. *)
let pull_overflow t =
  (* Drop dead overflow minima first so the epoch jump lands on a live
     entry. *)
  let continue = ref true in
  while !continue && t.overflow.klen > 0 do
    let i = t.overflow.kidx.(0) in
    if entry_live t i then continue := false
    else begin
      kh_remove_root t.overflow;
      free_slot t i
    end
  done;
  if t.overflow.klen > 0 then begin
    let epoch = tick_of_time t.overflow.ktimes.(0) lsr horizon_bits in
    t.cur <- epoch lsl horizon_bits;
    let continue = ref true in
    while !continue && t.overflow.klen > 0 do
      let i = t.overflow.kidx.(0) in
      if tick_of_time t.overflow.ktimes.(0) lsr horizon_bits = epoch then begin
        kh_remove_root t.overflow;
        if entry_live t i then place t i else free_slot t i
      end
      else continue := false
    done
  end

let advance t =
  let continue = ref true in
  while !continue do
    if t.ready.klen > 0 then continue := false
    else if try_level0 t then ()
    else if cascade_lowest t then ()
    else if t.overflow.klen > 0 then pull_overflow t
    else continue := false
  done

(* Drop dead entries off the top of the ready heap. *)
let prune_ready t =
  let continue = ref true in
  while !continue && t.ready.klen > 0 do
    let i = t.ready.kidx.(0) in
    if entry_live t i then continue := false
    else begin
      kh_remove_root t.ready;
      free_slot t i
    end
  done

(* Dispatch the live root of the ready heap. *)
let take_ready t =
  let i = t.ready.kidx.(0) in
  let time = t.ready.ktimes.(0) in
  kh_remove_root t.ready;
  if t.meta.((2 * i) + 1) land 1 = 1 then t.handles.(i).Handle.state <- 2;
  decr t.live;
  let v = t.payloads.(i) in
  free_slot t i;
  (time, v)

let rec pop t =
  prune_ready t;
  if t.ready.klen > 0 then Some (take_ready t)
  else if !(t.live) > 0 then begin
    advance t;
    pop t
  end
  else None

(* [take_ready] without the result tuple: the slot is freed before the
   callback runs, so the callback may push (and reuse the slot). *)
let take_ready_cb t k =
  let i = t.ready.kidx.(0) in
  let time = t.ready.ktimes.(0) in
  kh_remove_root t.ready;
  if t.meta.((2 * i) + 1) land 1 = 1 then t.handles.(i).Handle.state <- 2;
  decr t.live;
  let v = t.payloads.(i) in
  free_slot t i;
  k time v

let rec pop_cb t k =
  prune_ready t;
  if t.ready.klen > 0 then begin
    take_ready_cb t k;
    true
  end
  else if !(t.live) > 0 then begin
    advance t;
    pop_cb t k
  end
  else false

let rec pop_le t ~max_time =
  prune_ready t;
  if t.ready.klen > 0 then
    if t.ready.ktimes.(0) <= max_time then Some (take_ready t) else None
  else if !(t.live) > 0 then begin
    advance t;
    pop_le t ~max_time
  end
  else None

let rec pop_le_cb t ~max_time k =
  prune_ready t;
  if t.ready.klen > 0 then
    if t.ready.ktimes.(0) <= max_time then begin
      take_ready_cb t k;
      true
    end
    else false
  else if !(t.live) > 0 then begin
    advance t;
    pop_le_cb t ~max_time k
  end
  else false

let rec peek_time t =
  prune_ready t;
  if t.ready.klen > 0 then Some t.ready.ktimes.(0)
  else if !(t.live) > 0 then begin
    advance t;
    peek_time t
  end
  else None

let cancel = Handle.cancel
let cancelled = Handle.cancelled

(* Introspection for tests and benchmarks. *)
let stats t =
  ( Array.length t.payloads,
    t.in_use,
    t.ready.klen,
    t.overflow.klen,
    Array.fold_left ( + ) 0 t.lvl_count )
