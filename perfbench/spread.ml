(* Reads result lines (the last line of each bench.exe run) on standard
   input and prints, per metric, the sample count, median, quartiles and
   spread (interquartile range over median) — the steadiness figures a
   bound is judged against.  Lines that are not result lines are
   skipped, so whole run outputs can be piped in:

     for s in 1 2 3 4 5 6 7 8 9 10; do
       bash perfbench/run.sh --workload paper-seq --seed $s --seconds 15 --trace 0
     done | ./_build/default/perfbench/spread.exe *)

module P = Perfstats

let () =
  let runs =
    In_channel.input_lines stdin
    |> List.filter_map (fun line ->
           match P.summary_of_json (P.of_string line) with
           | s -> Some s
           | exception P.Parse_error _ -> None)
  in
  let names = match runs with [] -> [] | r :: _ -> List.map (fun m -> m.P.name) r.P.metrics in
  Printf.printf "%d runs, %d incorrect, %d of %d operations failed\n" (List.length runs)
    (List.length (List.filter (fun r -> not r.P.correct) runs))
    (List.fold_left (fun acc r -> acc + r.P.failed) 0 runs)
    (List.fold_left (fun acc r -> acc + r.P.attempted) 0 runs);
  Printf.printf "%-34s %3s %14s %14s %14s %8s\n" "metric" "n" "q1" "median" "q3" "spread";
  List.iter
    (fun name ->
      let xs =
        List.filter_map
          (fun r -> List.find_opt (fun m -> m.P.name = name) r.P.metrics)
          runs
        |> List.map (fun m -> m.P.value)
      in
      if List.length xs >= 2 then begin
        let q1, q2, q3 = P.quartiles xs in
        Printf.printf "%-34s %3d %14.6g %14.6g %14.6g %8.4f\n" name (List.length xs) q1 q2 q3
          (P.spread xs)
      end)
    names
