(* Versioned, explicit binary serialization (scenario repro blobs).

   Everything written is a primitive (ints as zig-zag varints, floats
   as IEEE bit patterns, strings length-prefixed) composed field by
   field — never [Marshal], so no closure can leak into a blob and a
   corrupt or foreign file fails with {!Corrupt} instead of a
   segfault. A blob opens with a caller-chosen magic string and a
   format version; readers reject the wrong magic and report the
   version so callers can gate compatibility explicitly. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

module Writer = struct
  type t = { buf : Buffer.t }

  let u8 t v = Buffer.add_char t.buf (Char.chr (v land 0xff))

  (* LEB128 over the zig-zag encoding, so small magnitudes of either
     sign stay short. *)
  let int t v =
    let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    let rec go z =
      if z land lnot 0x7f = 0 then u8 t z
      else begin
        u8 t (0x80 lor (z land 0x7f));
        go (z lsr 7)
      end
    in
    go z

  let int64 t v =
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

  let float t v = int64 t (Int64.bits_of_float v)
  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    int t (String.length s);
    Buffer.add_string t.buf s

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  let list t f l =
    int t (List.length l);
    List.iter (f t) l

  let create ~magic ~version =
    let t = { buf = Buffer.create 256 } in
    string t magic;
    int t version;
    t

  let contents t = Buffer.contents t.buf
end

module Reader = struct
  type t = { data : string; mutable pos : int; version : int }

  let u8_raw d =
    if d.pos >= String.length d.data then corrupt "truncated (at byte %d)" d.pos;
    let c = Char.code d.data.[d.pos] in
    d.pos <- d.pos + 1;
    c

  let int d =
    let rec go shift acc =
      if shift > 63 then corrupt "varint too long (at byte %d)" d.pos;
      let b = u8_raw d in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let z = go 0 0 in
    (z lsr 1) lxor (-(z land 1))

  let u8 = u8_raw

  let int64 d =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8_raw d)) (8 * i))
    done;
    !v

  let float d = Int64.float_of_bits (int64 d)

  let bool d =
    match u8_raw d with
    | 0 -> false
    | 1 -> true
    | b -> corrupt "invalid bool tag %d (at byte %d)" b (d.pos - 1)

  let string d =
    let n = int d in
    if n < 0 || d.pos + n > String.length d.data then
      corrupt "bad string length %d (at byte %d)" n d.pos;
    let s = String.sub d.data d.pos n in
    d.pos <- d.pos + n;
    s

  let option d f = if bool d then Some (f d) else None

  let list d f =
    let n = int d in
    if n < 0 then corrupt "negative list length (at byte %d)" d.pos;
    List.init n (fun _ -> f d)

  let of_string ~magic data =
    let d = { data; pos = 0; version = 0 } in
    let m = try string d with Corrupt _ -> corrupt "not a %s blob" magic in
    if not (String.equal m magic) then
      corrupt "bad magic %S (wanted %S)" m magic;
    { d with version = int d }

  let version d = d.version
  let at_end d = d.pos >= String.length d.data
end
