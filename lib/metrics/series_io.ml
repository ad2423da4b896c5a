let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_csv ~path ~header columns =
  if List.length header <> List.length columns then
    invalid_arg "Series_io.write_csv: header/column count mismatch";
  with_out path (fun oc ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      let rows =
        List.fold_left (fun acc c -> max acc (Array.length c)) 0 columns
      in
      for i = 0 to rows - 1 do
        let cells =
          List.map
            (fun c ->
              if i < Array.length c then Printf.sprintf "%.6g" c.(i) else "")
            columns
        in
        output_string oc (String.concat "," cells);
        output_char oc '\n'
      done)

let write_multi_series ~path series =
  with_out path (fun oc ->
      output_string oc "series,time,value\n";
      List.iter
        (fun (name, s) ->
          Array.iter
            (fun (t, v) -> Printf.fprintf oc "%s,%.6g,%.6g\n" name t v)
            s)
        series)
