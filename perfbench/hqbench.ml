(* Benchmark client. run.py spawns `hyperq serve` and calls this program:

     hqbench setup --workload W --port P
     hqbench drive --workload W --seed S --port P --seconds T --samples FILE
     hqbench trace --workload W --seed S --seconds T --spans FILE
     hqbench fingerprint

   [drive] and [trace] end their output with one JSON line. *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let kind_tag = function Workloads.Read -> "R" | Workloads.Write -> "W"

let write_samples path (o : Drive.outcome) =
  let oc = open_out path in
  output_string oc "session\tclass\tkind\tlatency_us\trows\tok\n";
  List.iter
    (fun (s : Drive.sample) ->
      Printf.fprintf oc "%d\t%s\t%s\t%.3f\t%d\t%d\n" s.Drive.session s.Drive.cls
        (kind_tag s.Drive.kind)
        (Int64.to_float s.Drive.lat_ns /. 1e3)
        s.Drive.rows
        (if s.Drive.error = None then 1 else 0))
    o.Drive.samples;
  close_out oc

(* how many entries the default pipeline's plan cache holds *)
let plan_cache_capacity () =
  let module Plan_cache = Hyperq_core.Plan_cache in
  let cache = (Hyperq_core.Pipeline.create ()).Hyperq_core.Pipeline.cache in
  let entry =
    {
      Plan_cache.e_bound = Hyperq_xtra.Xtra.No_op "";
      e_has_params = false;
      e_binder_features = [];
      e_rules = [];
      e_plan = None;
      e_bind_s = 0.;
      e_translate_s = 0.;
    }
  in
  for i = 1 to 1 lsl 14 do
    Plan_cache.add cache ~version:0
      (Plan_cache.key ~rules:"" ~sql:(string_of_int i) ~dialect:"" ~cap:"")
      entry
  done;
  (Plan_cache.stats cache).Plan_cache.entries

let () =
  let workload = ref "" and seed = ref 1 and port = ref 0 and seconds = ref 10. in
  let out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--port", Arg.Set_int port, "PORT");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--samples", Arg.Set_string out, "FILE");
      ("--spans", Arg.Set_string out, "FILE");
    ]
  in
  let cmd = ref "" in
  Arg.parse spec (fun a -> cmd := a) "hqbench (setup|drive|trace|fingerprint) [options]";
  if !cmd <> "fingerprint" && not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  match !cmd with
  | "setup" -> exit (if Drive.setup ~workload:!workload ~port:!port = 0 then 0 else 1)
  | "drive" ->
      let o = Drive.run ~workload:!workload ~seed:!seed ~port:!port ~seconds:!seconds in
      write_samples !out o;
      print_endline
        (json_obj
           [
             ("attempted", string_of_int o.Drive.attempted);
             ("failed", string_of_int o.Drive.failed);
             ("elapsed_s", json_float o.Drive.elapsed_s);
           ])
  | "trace" ->
      let stmts, failed, metrics =
        Traced.run ~workload:!workload ~seed:!seed ~budget_s:!seconds ~spans_out:!out
      in
      print_endline
        (json_obj
           [
             ("attempted", string_of_int stmts);
             ("failed", string_of_int failed);
             ("metrics", json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics));
           ])
  | "fingerprint" ->
      print_endline
        (json_obj
           [
             ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
             ("exec_domains", string_of_int (Hyperq_engine.Morsel.configured_domains ()));
             ("plan_cache_capacity", string_of_int (plan_cache_capacity ()));
           ])
  | c ->
      prerr_endline ("unknown command: " ^ c);
      exit 2
