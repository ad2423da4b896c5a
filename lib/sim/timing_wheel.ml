(* Hierarchical timing wheel over a flat slot-chained arena.

   Geometry: [levels] pages of [slots] slots each, one tick =
   [tick_seconds]. An event's tick is trunc(time / tick_seconds); level
   l slot j covers ticks with (tk lsr (bits*l)) land (slots-1) = j.
   Placement is page-aligned: an entry lives at the lowest level whose
   *page* (the bits above that level) matches the cursor's, so every
   stored index is strictly ahead of the cursor within its page and
   advancement never wraps a page or mixes epochs. At 12 bits x 4
   levels a level-0 slot is one tick and its page 4.1 simulated ms; a
   level-1 slot spans 4.1 ms and its page 16.8 s; level 2 slots span
   16.8 s (page 19.1 h) and level 3 slots 19.1 h. Events inside the
   cursor's 4.1 ms page (transmission completions, short timers) are
   chained once, straight at level 0; packet-delay events (propagation,
   RTO and MI timers, up to 16.8 s) sit at level 1 and pay one cascade;
   only timers further out pay two or three. Anything beyond the top
   page (>= 2^48 ticks ~ 8.9 simulated years ahead) waits in an
   overflow heap and is drained into the wheel when the cursor's epoch
   reaches it.

   The geometry is sized to the cache, not to the horizon: the 4 x 4096
   chain heads are 32-bit and take 64 KB, and the lines that pushes and
   harvests touch fit in a typical L2 cache. Every simulation creates
   one wheel and a sweep runs many short simulations, so creation must
   be cheap: the heads are never initialised (a head is valid only
   while its slot's bit in the occupancy bitmap is set) and only the
   4 KB of bitmaps are zero-filled. A page of the head table
   is touched only once a slot on it is first used, so a run that never
   files an event at level 2 or 3 never faults those pages in.

   The per-event helpers are marked [@inline]. Builds that compile
   with -opaque (dune's dev profile) inline nothing across modules, so
   inlining within this module is the only inlining they get.

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
     chain walks run over dense lines. The payload and its argument
     sit in two more columns, read once at dispatch;
   - the ready and overflow heaps copy (time, seq) next to the arena
     index, so their sift comparisons run over small unboxed arrays
     (L1-resident, no GC write barriers) instead of dereferencing the
     arena per compare;
   - slot occupancy is mirrored in a two-tier bitmap (32 slots per mask
     word, 32 mask words per summary bit; find-first-set by de Bruijn
     multiply), so advancing over sparse regions costs a handful of
     word reads, never a slot-by-slot scan;
   - {!push_unit} queues an uncancellable event with no {!Handle}
     allocated at all — the packet-delivery events that dominate
     simulations pay zero allocation and never touch the handle array.

   Cancellation is lazy (shared {!Handle} state flip); dead entries are
   freed when a harvest or heap pop surfaces them. A handle can be
   re-armed once it is no longer pending ({!arm}): each entry records
   the handle generation it was armed with, so the entry a cancel left
   buried stays dead when the same handle is armed again. A workload that
   cancels far-future timers en masse could strand dead entries in
   never-visited slots, so pushes trigger a sweep (walking only
   occupied slots, via the bitmap) once dead entries outnumber live
   ones past a floor — amortized O(1). *)

type handle = Handle.t

let tick_seconds = 1e-6
let inv_tick = 1. /. tick_seconds

(* The geometry is [bits] and [levels]; every other size derives from
   them. Mask words hold 32 slots each, and a summary word flags 32 mask
   words. *)
let bits = 12
let levels = 4
let slots = 1 lsl bits
let horizon_bits = bits * levels
let mask_words = slots / 32
let summary_words = (mask_words + 31) / 32
let () = assert (bits >= 5 && horizon_bits >= 48)

(* A binary min-heap on (time, seq) with the arena index along for the
   ride. Keys are copied in so sift compares stay inside these unboxed
   arrays — no pointers, hence no GC write barrier per sift move. *)
type kheap = {
  mutable ktimes : float array;
  mutable kseqs : int array; (* tagged: (seq lsl 1) lor has-handle *)
  mutable kidx : int array;
  mutable klen : int;
}

type ('a, 'b) t = {
  mutable times : float array;
  (* meta.(2i) = chain / free-list link (-1 ends);
     meta.(2i+1) = (seq lsl 1) lor 1-if-cancellable. *)
  mutable meta : int array;
  mutable handles : handle array; (* dummy for handleless entries *)
  mutable gens : int array; (* handle generation armed; handle entries only *)
  mutable payloads : 'a array;
  mutable args : 'b array;
  dummy : 'a; (* seeds payload slack; freed slots reset to it *)
  dummy_arg : 'b; (* the same for the argument column *)
  mutable free : int; (* head of the arena free list *)
  mutable in_use : int; (* allocated arena slots (live + unswept dead) *)
  mutable next_seq : int;
  mutable cur : int; (* current tick: all wheel entries are beyond it *)
  heads : Bytes.t;
      (* levels * slots 32-bit chain heads, left uninitialised: a head
         is valid only while its bit in [masks] is set. Arena indices
         therefore stay below 2^31. *)
  masks : int array; (* levels * mask_words occupancy bitmap, 32 b/word *)
  summary : int array; (* levels * summary_words: mask word <> 0 bits *)
  lvl_count : int array; (* entries stored per level *)
  ready : kheap;
  overflow : kheap;
  live : int ref;
}

let mk_kheap () = { ktimes = [||]; kseqs = [||]; kidx = [||]; klen = 0 }

(* [dummy] and [dummy_arg] seed the payload and argument columns
   ([Array.make] needs a value of each type before any entry exists)
   and replace freed slots' values so the arena never pins a dropped
   one. Storing both directly — rather than boxing each entry in an
   option-like wrapper — keeps push free of minor-heap allocation,
   which is measurable at millions of events per second. *)
let create ~dummy ~dummy_arg () =
  {
    times = [||];
    meta = [||];
    handles = [||];
    gens = [||];
    payloads = [||];
    args = [||];
    dummy;
    dummy_arg;
    free = -1;
    in_use = 0;
    next_seq = 0;
    cur = 0;
    heads = Bytes.create (4 * levels * slots);
    masks = Array.make (levels * mask_words) 0;
    summary = Array.make (levels * summary_words) 0;
    lvl_count = Array.make levels 0;
    ready = mk_kheap ();
    overflow = mk_kheap ();
    live = ref 0;
  }

let is_empty t = !(t.live) = 0
let size t = !(t.live)

(* Ticks saturate at [max_int]: [int_of_float] is unspecified from
   2^62 on (amd64 yields 0), which would file a far-future time at tick
   0. Saturation keeps the tick monotone in time, which is all the
   ordering argument needs; saturated entries reach the ready heap
   together and leave it in exact order. *)
let[@inline] tick_of_time time =
  let f = time *. inv_tick in
  if f < 0x1p62 then int_of_float f else max_int

(* Entry state, reading the handle only when one exists: pending, and
   still at the generation this entry was armed with. *)
let[@inline] entry_live t i =
  t.meta.((2 * i) + 1) land 1 = 0
  ||
  let h = t.handles.(i) in
  h.Handle.state = 0 && h.Handle.gen = t.gens.(i)

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

let[@inline] ctz32 w =
  ctz_table.((((w land -w) * debruijn) land 0xFFFFFFFF) lsr 27)

(* ---- key heap ---------------------------------------------------- *)

(* Kept out of line: every inlined push would otherwise carry it. *)
let kh_grow (h : kheap) =
  let ncap = if h.klen = 0 then 64 else h.klen * 2 in
  let nt = Array.make ncap 0. in
  let ns = Array.make ncap 0 in
  let ni = Array.make ncap 0 in
  Array.blit h.ktimes 0 nt 0 h.klen;
  Array.blit h.kseqs 0 ns 0 h.klen;
  Array.blit h.kidx 0 ni 0 h.klen;
  h.ktimes <- nt;
  h.kseqs <- ns;
  h.kidx <- ni

let[@inline] kh_push (h : kheap) time seq i =
  if h.klen >= Array.length h.kidx then kh_grow h;
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
let[@inline] kh_remove_root (h : kheap) =
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
  let ngens = Array.make ncap 0 in
  let npayloads = Array.make ncap t.dummy in
  let nargs = Array.make ncap t.dummy_arg in
  Array.blit t.times 0 ntimes 0 cap;
  Array.blit t.meta 0 nmeta 0 (2 * cap);
  Array.blit t.handles 0 nhandles 0 cap;
  Array.blit t.gens 0 ngens 0 cap;
  Array.blit t.payloads 0 npayloads 0 cap;
  Array.blit t.args 0 nargs 0 cap;
  t.times <- ntimes;
  t.meta <- nmeta;
  t.handles <- nhandles;
  t.gens <- ngens;
  t.payloads <- npayloads;
  t.args <- nargs;
  for i = ncap - 1 downto cap do
    nmeta.(2 * i) <- t.free;
    t.free <- i
  done

let[@inline] alloc t time tagged_seq v x =
  if t.free < 0 then grow t;
  let i = t.free in
  t.free <- t.meta.(2 * i);
  t.times.(i) <- time;
  t.meta.(2 * i) <- -1;
  t.meta.((2 * i) + 1) <- tagged_seq;
  t.payloads.(i) <- v;
  t.args.(i) <- x;
  t.in_use <- t.in_use + 1;
  i

let[@inline] free_slot t i =
  t.payloads.(i) <- t.dummy;
  t.args.(i) <- t.dummy_arg;
  if t.meta.((2 * i) + 1) land 1 = 1 then t.handles.(i) <- dummy_handle;
  t.meta.(2 * i) <- t.free;
  t.free <- i;
  t.in_use <- t.in_use - 1

(* ---- placement --------------------------------------------------- *)

(* Chain heads, 4 bytes per cell. Read one only while its slot's
   occupancy bit is set: the table is never initialised. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] get_head t cell = Int32.to_int (get32 t.heads (4 * cell))
let[@inline] set_head t cell i = set32 t.heads (4 * cell) (Int32.of_int i)

let[@inline] link_slot t level idx i =
  let cell = (level * slots) + idx in
  let w = (level * mask_words) + (idx lsr 5) in
  let bit = 1 lsl (idx land 31) in
  let word = t.masks.(w) in
  if word land bit <> 0 then t.meta.(2 * i) <- get_head t cell
  else begin
    t.meta.(2 * i) <- -1;
    if word = 0 then begin
      let sw = (level * summary_words) + (idx lsr 10) in
      t.summary.(sw) <- t.summary.(sw) lor (1 lsl ((idx lsr 5) land 31))
    end;
    t.masks.(w) <- word lor bit
  end;
  set_head t cell i;
  t.lvl_count.(level) <- t.lvl_count.(level) + 1

(* File arena entry [i] by its tick, relative to the current cursor:
   at or before the cursor -> ready heap; within the top page -> the
   lowest level whose page matches the cursor's; beyond -> overflow. *)
let[@inline] place t i =
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
let[@inline] clear_slot_bit t level idx =
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
          let i = ref (get_head t cell) in
          let kept = ref (-1) in
          while !i >= 0 do
            let next = t.meta.(2 * !i) in
            if entry_live t !i then begin
              t.meta.(2 * !i) <- !kept;
              kept := !i
            end
            else begin
              free_slot t !i;
              t.lvl_count.(level) <- t.lvl_count.(level) - 1
            end;
            i := next
          done;
          if !kept >= 0 then set_head t cell !kept
          else clear_slot_bit t level idx
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

let[@inline] maybe_sweep t =
  let dead = t.in_use - !(t.live) in
  if dead > 4096 && dead > t.in_use / 2 then begin
    sweep_chains t;
    sweep_kheap t t.ready;
    sweep_kheap t t.overflow
  end

(* ---- push -------------------------------------------------------- *)

let[@inline] check_time time =
  (* Also rejects NaN. *)
  if not (time >= 0. && time <= Float.max_float) then
    invalid_arg "Timing_wheel.push: time must be finite and non-negative"

(* Queue a cancellable entry under [h], which the caller has just made
   pending at its current generation. *)
let push_handle t h ~time v x =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  incr t.live;
  let i = alloc t time ((seq lsl 1) lor 1) v x in
  t.handles.(i) <- h;
  t.gens.(i) <- h.Handle.gen;
  place t i

let push t ~time v x =
  check_time time;
  maybe_sweep t;
  let h = Handle.make t.live in
  push_handle t h ~time v x;
  h

(* Uncancellable push: no handle is allocated or stored; the entry is
   live until dispatched. Ordering is identical to {!push} (same
   sequence counter). *)
let push_unit t ~time v x =
  check_time time;
  maybe_sweep t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  incr t.live;
  let i = alloc t time (seq lsl 1) v x in
  place t i

let idle t = { Handle.state = 2; gen = 0; live = t.live }

(* Re-arm: a fresh generation makes any entry this handle left behind
   (cancelled, still buried) dead for good. *)
let arm t (h : handle) ~time v x =
  if h.Handle.live != t.live then
    invalid_arg "Timing_wheel.arm: handle belongs to another queue";
  if h.Handle.state = 0 then invalid_arg "Timing_wheel.arm: handle is pending";
  check_time time;
  maybe_sweep t;
  h.Handle.state <- 0;
  h.Handle.gen <- h.Handle.gen + 1;
  push_handle t h ~time v x

(* ---- advancement ------------------------------------------------- *)

(* Harvest the chain at occupied slot [idx] of [level]: live entries go
   through [place] (which routes tick <= cur to ready), dead ones are
   freed. Clearing the occupancy bit is all it takes to empty the slot. *)
let[@inline] harvest t level idx =
  let i = ref (get_head t ((level * slots) + idx)) in
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
let[@inline] next_occupied t level from =
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
let[@inline] try_level0 t =
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

let[@inline] advance t =
  let continue = ref true in
  while !continue do
    if t.ready.klen > 0 then continue := false
    else if try_level0 t then ()
    else if cascade_lowest t then ()
    else if t.overflow.klen > 0 then pull_overflow t
    else continue := false
  done

(* Drop dead entries off the top of the ready heap. *)
let[@inline] prune_ready t =
  let continue = ref true in
  while !continue && t.ready.klen > 0 do
    let i = t.ready.kidx.(0) in
    if entry_live t i then continue := false
    else begin
      kh_remove_root t.ready;
      free_slot t i
    end
  done

(* Dispatch the live root of the ready heap to [k]. The slot is freed
   (and a handle marked popped) before [k] runs, so [k] may push, reuse
   the slot, or re-arm the handle. *)
let[@inline] take_ready_cb t k =
  let i = t.ready.kidx.(0) in
  let time = t.ready.ktimes.(0) in
  kh_remove_root t.ready;
  if t.meta.((2 * i) + 1) land 1 = 1 then t.handles.(i).Handle.state <- 2;
  decr t.live;
  let v = t.payloads.(i) in
  let x = t.args.(i) in
  free_slot t i;
  k time v x

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

let pop t =
  let r = ref None in
  ignore (pop_cb t (fun time v x -> r := Some (time, v, x)));
  !r

let cancel = Handle.cancel
let cancelled = Handle.cancelled

(* Introspection for tests and benchmarks. *)
let stats t =
  ( Array.length t.payloads,
    t.in_use,
    t.ready.klen,
    t.overflow.klen,
    Array.fold_left ( + ) 0 t.lvl_count )
