(* The query subsystem's front door: parse (with diagnostics, a fault
   point, and query.* metrics), choose an engine (planner-costed under
   Auto, exactly like replay's --engine auto), execute, and render —
   one shared render path, so byte-identical output across engines
   follows from the engines agreeing on the canonical Qresult. *)

module Trace = Ebp_trace.Trace
module Planner = Ebp_sessions.Planner
module Metrics = Ebp_obs.Metrics
module Span = Ebp_obs.Span
module Json = Ebp_obs.Json

let p_parse = Ebp_util.Fault.point "query.parse"
let m_runs = Metrics.counter "query.runs"
let m_parse_errors = Metrics.counter "query.parse_errors"

(* Same counter names Planner.replay uses — registration is idempotent,
   so query decisions and replay decisions share the cells. *)

type engine = Auto | Indexed | Scan

let engine_of_string = function
  | "auto" -> Ok Auto
  | "indexed" -> Ok Indexed
  | "scan" -> Ok Scan
  | s -> Error (Printf.sprintf "unknown engine %S (expected auto, indexed, or scan)" s)

let parse source : (Ast.query, Parser.error) result =
  Span.with_span "query.parse" @@ fun () ->
  Ebp_util.Fault.check p_parse;
  match Parser.parse source with
  | Ok q -> Ok q
  | Error e ->
      Metrics.incr m_parse_errors;
      Error e

(* The planner prices replay work in sessions; a query's analogue is how
   many index-backed lookups it compiles to — its atoms, plus a few for
   the per-object join of [group by object]. *)
let planner_sessions (q : Ast.query) =
  let rec atoms = function
    | Ast.All -> 0
    | Ast.Pc_cmp _ | Ast.Pc_in _ | Ast.Addr_in _ | Ast.Time_in _ | Ast.Live _ -> 1
    | Ast.And (a, b) | Ast.Or (a, b) -> atoms a + atoms b
    | Ast.Not a -> atoms a
  in
  max 1 (atoms q.pred + if q.group = Some Ast.G_object then 4 else 0)

type execution = {
  raw : Qresult.raw;
  engine_used : string;  (* "indexed" or "scan" *)
  planned : Planner.estimate option;  (* Some under Auto *)
}

let run ?(engine = Auto) ?index ?(index_source = Planner.no_index_cache) ?pool
    ?reason ?log trace (q : Ast.query) : execution =
  Span.with_span "query.run" @@ fun () ->
  Metrics.incr m_runs;
  let index_source =
    match index with Some i -> Planner.resident i | None -> index_source
  in
  let run_scan () = Scan_engine.run trace q in
  let run_indexed () =
    Compiled.run trace
      (Planner.load_or_build ?pool
         ~page_sizes:Ebp_sessions.Replay.default_page_sizes index_source trace)
      q
  in
  match engine with
  | Scan -> { raw = run_scan (); engine_used = "scan"; planned = None }
  | Indexed -> { raw = run_indexed (); engine_used = "indexed"; planned = None }
  | Auto -> (
      let est =
        Planner.estimate ?reason ~events:(Trace.length trace)
          ~sessions:(planner_sessions q) ~domains:1
          ~cached_index:index_source.Planner.cached
          ()
      in
      Planner.record_decision est;
      Option.iter (fun log -> log (Planner.log_line est)) log;
      match est.choice with
      | Planner.Use_scan ->
          { raw = run_scan (); engine_used = "scan"; planned = Some est }
      | Planner.Build_index | Planner.Reuse_index ->
          { raw = run_indexed (); engine_used = "indexed"; planned = Some est })

(* Run both engines and assert agreement — the differential check the
   fuzzer, tests, and [--check] go through. *)
let check_engines ?index ?pool trace (q : Ast.query) : (execution, string) result
    =
  let indexed = run ~engine:Indexed ?index ?pool trace q in
  let scan = run ~engine:Scan trace q in
  if Qresult.equal indexed.raw scan.raw then Ok indexed
  else
    Error
      (Printf.sprintf "engines disagree on %S: indexed %s, scan %s"
         (Ast.to_string q)
         (Qresult.to_debug_string indexed.raw)
         (Qresult.to_debug_string scan.raw))

(* --- rendering (shared by both engines and all surfaces) --- *)

type format = Table | Ndjson

let format_of_string = function
  | "table" -> Ok Table
  | "ndjson" -> Ok Ndjson
  | s -> Error (Printf.sprintf "unknown format %S (expected table or ndjson)" s)

let group_key_name = function Ast.G_object -> "object" | Ast.G_pc -> "pc"

let group_key_cell trace (q : Ast.query) ordinal =
  match q.group with
  | Some Ast.G_object ->
      Ebp_trace.Object_desc.to_string (Trace.object_of_id trace ordinal)
  | _ -> string_of_int ordinal

let count_header (q : Ast.query) =
  match q.agg with
  | Ast.Count -> "count"
  | Ast.Count_distinct Ast.D_pc -> "distinct_pc"
  | Ast.Count_distinct Ast.D_word -> "distinct_word"

let render ~format trace (q : Ast.query) (raw : Qresult.raw) : string =
  let groups rows = Qresult.sort_groups ?top:q.top rows in
  match format with
  | Table -> (
      let table header rows = Ebp_util.Text_table.render ~header ~rows () in
      match raw with
      | Qresult.Count n -> table [ count_header q ] [ [ string_of_int n ] ]
      | Qresult.Groups rows ->
          table
            [ group_key_name (Option.get q.group); "count" ]
            (List.map
               (fun (k, c) -> [ group_key_cell trace q k; string_of_int c ])
               (groups rows))
      | Qresult.Buckets rows ->
          table [ "bucket"; "count" ]
            (List.map
               (fun (b, c) -> [ string_of_int b; string_of_int c ])
               rows))
  | Ndjson ->
      let lines =
        match raw with
        | Qresult.Count n -> [ Json.Obj [ (count_header q, Json.Int n) ] ]
        | Qresult.Groups rows ->
            let key = group_key_name (Option.get q.group) in
            List.map
              (fun (k, c) ->
                let kv =
                  match q.group with
                  | Some Ast.G_object -> Json.Str (group_key_cell trace q k)
                  | _ -> Json.Int k
                in
                Json.Obj [ (key, kv); ("count", Json.Int c) ])
              (groups rows)
        | Qresult.Buckets rows ->
            List.map
              (fun (b, c) ->
                Json.Obj [ ("bucket", Json.Int b); ("count", Json.Int c) ])
              rows
      in
      String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") lines)
