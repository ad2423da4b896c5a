(* Host clocks, process counters and the facts printed with every result. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* User plus system CPU seconds of the whole process, every domain
   included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

(* /proc files report length 0, so read them line by line. *)
let proc_field path field =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            let k = String.length field in
            if String.length line > k && String.sub line 0 k = field then
              Scanf.sscanf (String.sub line k (String.length line - k))
                " %d" (fun v -> Some v)
            else go ()
        in
        go ())

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> Float.nan

(* The commit of the checkout, read straight from [.git] in the working
   directory so that nothing outside it is consulted. A source tree
   without [.git] reports "unknown". *)
let git_commit () =
  let ref_prefix = "ref: " in
  let n = String.length ref_prefix in
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.length head > n && String.sub head 0 n = ref_prefix
    -> (
    let r = String.sub head n (String.length head - n) in
    match read_file (".git/" ^ r) with
    | Some h -> String.trim h
    | None ->
      Option.value (read_file ".git/packed-refs") ~default:""
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ h; name ] when name = r -> Some h
             | _ -> None)
      |> Option.value ~default:"unknown")
  | Some head -> head

let nproc () = Domain.recommended_domain_count ()

let facts ~seed =
  Printf.sprintf "nproc=%d ocaml=%s commit=%s seed=%d" (nproc ())
    Sys.ocaml_version (git_commit ()) seed
