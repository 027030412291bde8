(* The repository benchmark. One run measures one workload for a fixed
   time and prints a human-readable summary followed, as its last line,
   by one JSON object:

     ebpbench --workload paper|serve-mixed|stream-travel --seed N
              --seconds S --trace 0|1 [--ebp PATH] [--commit ID]

   --trace 0 reports the end-to-end metrics, measured with nothing but
   the benchmark's own clock around whole operations; --trace 1 is a
   separate run that times each layer through its public calls. The exit
   code is 1 when a correctness gate failed. *)

open Common

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference-probe" then probe_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let ebp = ref "_build/default/bin/ebp.exe" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper, serve-mixed or stream-travel");
      ("--seed", Arg.Set_int seed, "N seed for the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--ebp", Arg.Set_string ebp, "PATH the ebp executable (serve-mixed)");
      ("--commit", Arg.Set_string commit, "ID source revision, for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ebpbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = max 1 !seconds and seed = !seed in
  let scratch = scratch_dir () in
  let r =
    match !workload with
    | "paper" -> Paper.run ~seed ~seconds ~trace ~scratch
    | "serve-mixed" -> Serve_mixed.run ~seed ~seconds ~trace ~scratch ~ebp:!ebp
    | "stream-travel" -> Stream_travel.run ~seed ~seconds ~trace ~scratch
    | w -> die "unknown workload %S" w
  in
  let failed = List.length r.failures in
  List.iter print_endline (List.filteri (fun i _ -> i < 5) (List.rev r.failures));
  if failed > 0 then Printf.printf "%d operations or checks failed\n" failed;
  List.iter print_endline r.notes;
  let metrics = r.metrics in
  List.iter
    (fun x -> Printf.printf "%-34s %16.4f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf
    "stamp {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"samples\": {%s}}\n"
    !workload seed seconds (if trace then 1 else 0)
    (machine_cpus ())
    Sys.ocaml_version !commit
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) r.samples));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) r.attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_float x.value) x.unit_)
          metrics));
  exit (if failed = 0 then 0 else 1)
