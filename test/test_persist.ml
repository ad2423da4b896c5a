open Pcc_sim

(* Property-style roundtrip tests for Persist: random values from a
   seeded RNG, plus the adversarial corners (LEB128 group boundaries,
   min_int/max_int, non-finite floats, nesting, corrupt input). *)

let magic = "PCCTEST"

let roundtrip write read =
  let w = Persist.Writer.create ~magic ~version:1 in
  write w;
  let r = Persist.Reader.of_string ~magic (Persist.Writer.contents w) in
  let v = read r in
  Alcotest.(check bool) "all bytes consumed" true (Persist.Reader.at_end r);
  v

let test_int_boundaries () =
  (* Zig-zag LEB128 changes width at every 7-bit group boundary; check
     both sides of each, in both signs, plus the extremes. *)
  let boundaries =
    List.concat_map
      (fun bits ->
        let v = 1 lsl bits in
        [ v - 1; v; v + 1; -v + 1; -v; -v - 1 ])
      [ 6; 7; 13; 14; 20; 21; 27; 28; 34; 41; 48; 55; 61 ]
    @ [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]
  in
  List.iter
    (fun v ->
      let got = roundtrip (fun w -> Persist.Writer.int w v) Persist.Reader.int in
      Alcotest.(check int) (Printf.sprintf "int %d" v) v got)
    boundaries

let test_int_random () =
  let rng = Rng.create 101 in
  for _ = 1 to 1000 do
    (* Random magnitudes spread over every LEB128 width. *)
    let bits = Rng.int rng 62 in
    let v =
      let m = Rng.bits64 rng in
      Int64.to_int (Int64.shift_right m (63 - bits))
    in
    let got = roundtrip (fun w -> Persist.Writer.int w v) Persist.Reader.int in
    Alcotest.(check int) (Printf.sprintf "int %d" v) v got
  done

let test_int64_random () =
  let rng = Rng.create 102 in
  let cases =
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int ]
    @ List.init 500 (fun _ -> Rng.bits64 rng)
  in
  List.iter
    (fun v ->
      let got =
        roundtrip (fun w -> Persist.Writer.int64 w v) Persist.Reader.int64
      in
      Alcotest.(check int64) (Printf.sprintf "int64 %Ld" v) v got)
    cases

let test_float_exact_bits () =
  let rng = Rng.create 103 in
  let specials =
    [
      0.; -0.; 1.; -1.; Float.infinity; Float.neg_infinity; Float.nan;
      Float.max_float; Float.min_float; epsilon_float; 4.9e-324;
      (* subnormal *)
    ]
  in
  let randoms =
    List.init 500 (fun _ -> Int64.float_of_bits (Rng.bits64 rng))
  in
  List.iter
    (fun v ->
      let got =
        roundtrip (fun w -> Persist.Writer.float w v) Persist.Reader.float
      in
      (* Bit-pattern equality: NaN payloads and signed zeros included. *)
      Alcotest.(check int64)
        (Printf.sprintf "float %h" v)
        (Int64.bits_of_float v) (Int64.bits_of_float got))
    (specials @ randoms)

let random_string rng =
  String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256))

let test_string_random () =
  let rng = Rng.create 104 in
  for _ = 1 to 200 do
    let v = random_string rng in
    let got =
      roundtrip (fun w -> Persist.Writer.string w v) Persist.Reader.string
    in
    Alcotest.(check string) "string" v got
  done

let test_nested_structures () =
  (* A random (int option * float list) list, nested the way a
     scenario's optional fields and flow lists are, written and read
     back with combinators. *)
  let rng = Rng.create 105 in
  let gen_item () =
    ( (if Rng.bernoulli rng 0.5 then Some (Rng.int rng 1_000_000) else None),
      List.init (Rng.int rng 8) (fun _ -> Rng.float rng) )
  in
  for _ = 1 to 50 do
    let v = List.init (Rng.int rng 10) (fun _ -> gen_item ()) in
    let write w =
      Persist.Writer.list w
        (fun w (o, fs) ->
          Persist.Writer.option w Persist.Writer.int o;
          Persist.Writer.list w Persist.Writer.float fs)
        v
    in
    let read r =
      Persist.Reader.list r (fun r ->
          let o = Persist.Reader.option r Persist.Reader.int in
          let fs = Persist.Reader.list r Persist.Reader.float in
          (o, fs))
    in
    Alcotest.(check bool) "nested roundtrip" true (roundtrip write read = v)
  done

let expect_corrupt name f =
  match f () with
  | exception Persist.Corrupt _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Persist.Corrupt")

let test_corrupt_inputs () =
  let blob =
    let w = Persist.Writer.create ~magic ~version:1 in
    Persist.Writer.int w 42;
    Persist.Writer.string w "hello";
    Persist.Writer.contents w
  in
  expect_corrupt "bad magic" (fun () ->
      Persist.Reader.of_string ~magic:"WRONG" blob);
  expect_corrupt "empty input" (fun () -> Persist.Reader.of_string ~magic "");
  (* Truncation at every prefix must raise on some read, never crash. *)
  for len = 0 to String.length blob - 1 do
    let cut = String.sub blob 0 len in
    match Persist.Reader.of_string ~magic cut with
    | exception Persist.Corrupt _ -> ()
    | r ->
      expect_corrupt
        (Printf.sprintf "truncated at %d" len)
        (fun () ->
          let v = Persist.Reader.int r in
          let s = Persist.Reader.string r in
          (v, s))
  done;
  (* Reading past the end of a well-formed blob must also raise. *)
  let r = Persist.Reader.of_string ~magic blob in
  let _ = Persist.Reader.int r in
  let _ = Persist.Reader.string r in
  Alcotest.(check bool) "at end" true (Persist.Reader.at_end r);
  expect_corrupt "read past end" (fun () -> Persist.Reader.int r)

let test_mixed_random_programs () =
  (* Random write programs: a tag-directed sequence of primitives,
     mirrored on the read side — write order is read order. *)
  let rng = Rng.create 106 in
  for _ = 1 to 100 do
    let n = 1 + Rng.int rng 20 in
    let ops =
      List.init n (fun _ ->
          match Rng.int rng 5 with
          | 0 -> `I (Rng.int rng 1_000_000 - 500_000)
          | 1 -> `F (Rng.float rng)
          | 2 -> `B (Rng.bernoulli rng 0.5)
          | 3 -> `S (random_string rng)
          | _ -> `U (Rng.int rng 256))
    in
    let w = Persist.Writer.create ~magic ~version:7 in
    List.iter
      (function
        | `I v -> Persist.Writer.int w v
        | `F v -> Persist.Writer.float w v
        | `B v -> Persist.Writer.bool w v
        | `S v -> Persist.Writer.string w v
        | `U v -> Persist.Writer.u8 w v)
      ops;
    let r = Persist.Reader.of_string ~magic (Persist.Writer.contents w) in
    Alcotest.(check int) "version" 7 (Persist.Reader.version r);
    List.iter
      (function
        | `I v -> Alcotest.(check int) "int" v (Persist.Reader.int r)
        | `F v ->
          Alcotest.(check int64) "float bits" (Int64.bits_of_float v)
            (Int64.bits_of_float (Persist.Reader.float r))
        | `B v -> Alcotest.(check bool) "bool" v (Persist.Reader.bool r)
        | `S v -> Alcotest.(check string) "string" v (Persist.Reader.string r)
        | `U v -> Alcotest.(check int) "u8" v (Persist.Reader.u8 r))
      ops;
    Alcotest.(check bool) "at end" true (Persist.Reader.at_end r)
  done

let suites =
  [
    ( "persist.roundtrip",
      [
        Alcotest.test_case "int LEB128 boundaries" `Quick test_int_boundaries;
        Alcotest.test_case "int random magnitudes" `Quick test_int_random;
        Alcotest.test_case "int64 random" `Quick test_int64_random;
        Alcotest.test_case "float exact bits incl. non-finite" `Quick
          test_float_exact_bits;
        Alcotest.test_case "string random bytes" `Quick test_string_random;
        Alcotest.test_case "nested option/list structures" `Quick
          test_nested_structures;
        Alcotest.test_case "mixed random programs" `Quick
          test_mixed_random_programs;
      ] );
    ( "persist.corrupt",
      [ Alcotest.test_case "malformed inputs raise" `Quick test_corrupt_inputs ]
    );
  ]
