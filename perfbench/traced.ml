(* The traced path: one statement runs in-process through the same layers
   the server uses, calling each layer's public function in turn and
   recording a span around each call. Spans live in memory and are written
   out once, at the end of the run.

   The path mirrors [Pipeline.run_sql]: plan-cache probe; on a miss lex,
   parse, bind, transform, serialize (and cache the translation); execute
   under the pipeline lock; package the rows into TDF and convert them to
   WP-A records; frame the reply as the protocol handler does. Statements
   the pipeline answers outside that path (macros, HELP/SHOW, SET SESSION,
   COLLECT STATISTICS, DML on views, SET-table inserts) get one
   [core.emulation] span around [Pipeline.run_statement_ast]. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Pipeline = Hyperq_core.Pipeline
module Plan_cache = Hyperq_core.Plan_cache
module Session = Hyperq_core.Session
module Odbc_server = Hyperq_core.Odbc_server
module Result_converter = Hyperq_core.Result_converter
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Transformer = Hyperq_transform.Transformer
module Capability = Hyperq_transform.Capability
module Serializer = Hyperq_serialize.Serializer
module Xtra = Hyperq_xtra.Xtra
module Backend = Hyperq_engine.Backend
module Batch_exec = Hyperq_engine.Batch_exec
module Morsel = Hyperq_engine.Morsel
module Tdf = Hyperq_tdf.Tdf
module Result_store = Hyperq_tdf.Result_store
module Message = Hyperq_wire.Message
module Record = Hyperq_wire.Record
module Registry = Hyperq_rules.Registry

(* --- spans ---------------------------------------------------------------- *)

(* Layer ids; a span's name is its layer's. *)
let layer_names =
  [|
    "statement"; "core.plan_cache"; "sqlparser.lex"; "sqlparser.parse"; "binder";
    "transform"; "serialize"; "core.pipeline.lock_wait"; "engine"; "tdf";
    "core.result_converter"; "wire"; "core.emulation";
  |]

let l_root = 0
and l_cache = 1
and l_lex = 2
and l_parse = 3
and l_bind = 4
and l_transform = 5
and l_serialize = 6
and l_lock = 7
and l_engine = 8
and l_tdf = 9
and l_convert = 10
and l_wire = 11
and l_emulation = 12

let n_layers = Array.length layer_names

(* Spans are rows of six ints (statement, id, parent, layer, start ns, end
   ns) in an unboxed buffer the GC never scans; opening and closing a span
   allocates nothing, so no collection starts between two layer calls. *)
type tracer = {
  on : bool;
  mutable buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;  (** spans recorded *)
  mutable stmt : int;
  mutable root_id : int;
  self : int array;  (** this statement's self time per layer, ns *)
  seen : int array;  (** this statement's span count per layer *)
  mutable last_root : int;  (** duration of the last closed root, ns *)
}

let now () = Int64.to_int (Monotonic_clock.now ())

(* filled at once, so no page of it is first touched while a span is open *)
let new_buf n =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (6 * n) in
  Bigarray.Array1.fill b 0;
  b

let tracer on =
  {
    on;
    buf = new_buf (if on then 1 lsl 16 else 0);
    len = 0;
    stmt = 0;
    root_id = -1;
    self = Array.make n_layers 0;
    seen = Array.make n_layers 0;
    last_root = 0;
  }

let record tr ~parent layer t0 t1 =
  let o = 6 * tr.len in
  let b = tr.buf in
  Bigarray.Array1.unsafe_set b o tr.stmt;
  Bigarray.Array1.unsafe_set b (o + 1) tr.len;
  Bigarray.Array1.unsafe_set b (o + 2) parent;
  Bigarray.Array1.unsafe_set b (o + 3) layer;
  Bigarray.Array1.unsafe_set b (o + 4) t0;
  Bigarray.Array1.unsafe_set b (o + 5) t1;
  tr.len <- tr.len + 1

(* Opens a statement: room for its spans is made here, before the clock
   starts. Returns the root's start time. *)
let root_begin tr =
  if not tr.on then 0
  else begin
    if 6 * (tr.len + 64) > Bigarray.Array1.dim tr.buf then begin
      let nb = new_buf (2 * (tr.len + 64)) in
      Bigarray.Array1.blit tr.buf (Bigarray.Array1.sub nb 0 (Bigarray.Array1.dim tr.buf));
      tr.buf <- nb
    end;
    Array.fill tr.self 0 n_layers 0;
    Array.fill tr.seen 0 n_layers 0;
    tr.stmt <- tr.stmt + 1;
    tr.root_id <- tr.len;
    record tr ~parent:(-1) l_root 0 0;
    now ()
  end

let root_end tr t0 =
  if tr.on then begin
    let t1 = now () in
    let o = 6 * tr.root_id in
    Bigarray.Array1.set tr.buf (o + 4) t0;
    Bigarray.Array1.set tr.buf (o + 5) t1;
    tr.last_root <- t1 - t0
  end

(* Gaps between consecutive spans of the last statement (and between the
   root's edges and its first and last span), ns. No program code runs in
   a gap beyond two clock reads (~60 ns), so one longer than
   [interruption_ns] is time the thread was kept off the CPU. *)
let interruption_ns = 1_000

let gaps tr =
  let get i k = Bigarray.Array1.get tr.buf ((6 * i) + k) in
  let prev = ref (get tr.root_id 4) and acc = ref [] in
  for i = tr.root_id + 1 to tr.len - 1 do
    acc := (get i 4 - !prev) :: !acc;
    prev := get i 5
  done;
  (get tr.root_id 5 - !prev) :: !acc

let span_begin tr = if tr.on then now () else 0

let span_end tr layer t0 =
  if tr.on then begin
    let t1 = now () in
    record tr ~parent:tr.root_id layer t0 t1;
    tr.self.(layer) <- tr.self.(layer) + (t1 - t0);
    tr.seen.(layer) <- tr.seen.(layer) + 1
  end

let write_spans tr path =
  let oc = open_out path in
  output_string oc "stmt\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for i = 0 to tr.len - 1 do
    let g k = Bigarray.Array1.get tr.buf ((6 * i) + k) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" (g 0) (g 1) (g 2)
      layer_names.(g 3) (g 4) (g 5)
  done;
  close_out oc

(* --- one statement ------------------------------------------------------- *)

type route = Query | Dml | Emulated

type result = {
  route : route;
  cache_hit : bool;
  rows : Value.t array list;
  count : int;
  activity : string;
  target_sql : string list;
  sql_bytes : int option;  (** serialized target SQL, when serialized here *)
  rules_fired : int;
  record_bytes : int;  (** WP-A record payload bytes sent *)
  backend_requests : int;  (** statements the emulation layer sent *)
  spilled : bool;
  engine : (string * int) list;  (** Batch_exec counter deltas *)
  barrier_wait_s : float;
  split : (float * float * float) option;
      (** emulated statements: the pipeline's own translate / execute /
          convert seconds *)
}

let teradata = Dialect.to_string Dialect.Teradata

(* the statements [Pipeline.run_ast_statement] binds and sends as one
   translated request *)
let plain_ast (p : Pipeline.t) (ast : Ast.statement) =
  let last name = List.nth name (List.length name - 1) in
  let is_view t = Catalog.find_view p.Pipeline.vcatalog (last t) <> None in
  match ast with
  | Ast.S_select _ -> true
  | Ast.S_update { table; _ } | Ast.S_delete { table; _ } -> not (is_view table)
  | Ast.S_insert { table; _ } -> (
      (not (is_view table))
      &&
      match Catalog.find_table p.Pipeline.vcatalog (last table) with
      | Some tbl -> not tbl.Catalog.tbl_set_semantics
      | None -> true)
  | _ -> false

let barrier_wait () =
  Option.value ~default:0. (List.assoc_opt "barrier_wait_s" (Morsel.stats ()))

let delta before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

(* what the protocol handler does with a result: header, record parcels of
   128 rows, success; returns the record payload bytes *)
let frame columns rows count activity =
  let cols =
    List.map (fun (n, ty) -> { Record.rc_name = n; rc_type = ty }) columns
  in
  let header =
    Message.Response_header
      { columns = List.map (fun (n, ty) -> { Message.col_name = n; col_type = ty }) columns }
  in
  let bytes = ref 0 and parcel = ref [] and n = ref 0 in
  let flush () =
    if !parcel <> [] then
      ignore (Message.encode_frame (Message.Records { payload = List.rev !parcel }));
    parcel := [];
    n := 0
  in
  ignore (Message.encode_frame header);
  List.iter
    (fun row ->
      let r = Record.encode_row cols row in
      bytes := !bytes + String.length r;
      parcel := r :: !parcel;
      incr n;
      if !n = 128 then flush ())
    rows;
  flush ();
  ignore (Message.encode_frame (Message.Success { activity_count = count; activity }));
  !bytes

let empty_result = { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "OK" }

let execute tr (p : Pipeline.t) sql =
  let t = span_begin tr in
  Mutex.lock p.Pipeline.lock;
  span_end tr l_lock t;
  let t = span_begin tr in
  match Odbc_server.submit p.Pipeline.odbc ~sql with
  | res ->
      Mutex.unlock p.Pipeline.lock;
      span_end tr l_engine t;
      res
  | exception e ->
      Mutex.unlock p.Pipeline.lock;
      raise e

let secs ns = float_of_int ns /. 1e9

(* One statement through the traced path. Each layer call sits between a
   [span_begin] and a [span_end]. The code between two spans allocates
   nothing (the locals below are mutable variables, and every value that
   needs a heap block is built inside a span), so a garbage collection can
   only start inside a layer, and the layers cover the root span. *)
let exec tr (p : Pipeline.t) (session : Session.t) (sql_text : string) : result =
  let counters0 = Batch_exec.counters () and wait0 = barrier_wait () in
  let res = ref empty_result and route = ref Query and sent = ref [] in
  let sql_bytes = ref (-1) and rules = ref 0 and requests = ref 0 in
  let hit = ref false and split = ref None and spilled = ref false in
  let record_bytes = ref 0 in
  let root = root_begin tr in
  let t = span_begin tr in
  let act =
    Registry.active p.Pipeline.rules
      ~packs:(p.Pipeline.default_rule_packs @ session.Session.rule_packs)
  in
  let version = Catalog.version p.Pipeline.vcatalog in
  let key =
    Plan_cache.key ~rules:act.Registry.act_set_id ~sql:sql_text ~dialect:teradata
      ~cap:p.Pipeline.cap.Capability.name
  in
  let entry = Plan_cache.find p.Pipeline.cache ~version key in
  (* the entry's fields are read here: a cold entry costs a memory miss,
     which belongs to the cache *)
  let target = ref "" and no_op = ref false in
  (match entry with
  | Some { Plan_cache.e_plan = Some plan; e_bound; _ } ->
      hit := true;
      (match e_bound with Xtra.Query _ -> () | _ -> route := Dml);
      target := plan.Plan_cache.p_target_sql;
      no_op := plan.Plan_cache.p_no_op
  | _ -> ());
  span_end tr l_cache t;
  (match entry with
  | Some { Plan_cache.e_plan = Some _; _ } ->
      if not !no_op then begin
        let t = span_begin tr in
        Mutex.lock p.Pipeline.lock;
        span_end tr l_lock t;
        let t = span_begin tr in
        (match Odbc_server.submit p.Pipeline.odbc ~sql:!target with
        | r ->
            Mutex.unlock p.Pipeline.lock;
            res := r;
            if !target <> "" then sent := [ !target ]
        | exception e ->
            Mutex.unlock p.Pipeline.lock;
            raise e);
        span_end tr l_engine t
      end
  | Some { Plan_cache.e_plan = None; _ } ->
      failwith "parameterized plan-cache entry: the benchmark sends no parameters"
  | None ->
      let t0 = span_begin tr in
      let tokens = Lexer.tokenize sql_text in
      span_end tr l_lex t0;
      let t = span_begin tr in
      let ast = Parser.parse_statement_tokens ~dialect:Dialect.Teradata tokens in
      let parse_s = secs (now () - t0) in
      let plain = plain_ast p ast in
      span_end tr l_parse t;
      if not plain then begin
        let t = span_begin tr in
        let o = Pipeline.run_statement_ast p ~session ~parse_s ~sql_text ast in
        let tm = o.Pipeline.out_timings in
        res :=
          {
            Backend.res_schema = o.Pipeline.out_schema;
            res_rows = o.Pipeline.out_rows;
            res_rowcount = o.Pipeline.out_count;
            res_message = o.Pipeline.out_activity;
          };
        route := Emulated;
        sent := o.Pipeline.out_sql;
        requests := List.length o.Pipeline.out_sql;
        split := Some (tm.Pipeline.translate_s, tm.Pipeline.execute_s, tm.Pipeline.convert_s);
        span_end tr l_emulation t
      end
      else begin
        let t = span_begin tr in
        let bctx = Binder.create_ctx ~dialect:Dialect.Teradata p.Pipeline.vcatalog in
        let bound = Binder.bind_statement bctx ast in
        let bind_s = secs (now () - t) in
        span_end tr l_bind t;
        (match bound with
        | Xtra.Query _ -> ()
        | Xtra.Insert _ | Xtra.Update _ | Xtra.Delete _ -> route := Dml
        | _ -> failwith ("traced path cannot run: " ^ sql_text));
        let t = span_begin tr in
        let transformed, applied =
          Transformer.transform ~extra_rel_rules:p.Pipeline.infer_rel_rules
            ~cap:p.Pipeline.cap ~counter:(ref 1_000_000) bound
        in
        rules := List.fold_left (fun a (_, n) -> a + n) 0 applied;
        span_end tr l_transform t;
        let t = span_begin tr in
        let sql = Serializer.serialize ~cap:p.Pipeline.cap transformed in
        sql_bytes := String.length sql;
        sent := [ sql ];
        span_end tr l_serialize t;
        let no_op = match transformed with Xtra.No_op _ -> true | _ -> false in
        if not no_op then begin
          let t = span_begin tr in
          Mutex.lock p.Pipeline.lock;
          span_end tr l_lock t;
          let t = span_begin tr in
          (match Odbc_server.submit p.Pipeline.odbc ~sql with
          | r ->
              Mutex.unlock p.Pipeline.lock;
              res := r
          | exception e ->
              Mutex.unlock p.Pipeline.lock;
              raise e);
          span_end tr l_engine t
        end;
        let t = span_begin tr in
        Plan_cache.add p.Pipeline.cache ~version key
          {
            Plan_cache.e_bound = bound;
            e_has_params = false;
            e_binder_features = bctx.Binder.features;
            e_rules = List.map fst applied;
            e_plan = Some { Plan_cache.p_target_sql = sql; p_no_op = no_op };
            e_bind_s = parse_s +. bind_s;
            e_translate_s = secs (t - t0);
          };
        span_end tr l_cache t
      end);
  let columns = !res.Backend.res_schema and rows = !res.Backend.res_rows in
  if !route <> Emulated && rows <> [] then begin
    let t = span_begin tr in
    let cds = List.map (fun (n, ty) -> { Tdf.cd_name = n; cd_type = ty }) columns in
    let store = Result_store.create cds in
    Result_store.add_rows store rows;
    spilled := Result_store.spilled store;
    span_end tr l_tdf t;
    let t = span_begin tr in
    ignore (Result_converter.convert cds store);
    span_end tr l_convert t
  end;
  let t = span_begin tr in
  record_bytes := frame columns rows !res.Backend.res_rowcount !res.Backend.res_message;
  span_end tr l_wire t;
  root_end tr root;
  {
    route = !route;
    cache_hit = !hit;
    rows;
    count = !res.Backend.res_rowcount;
    activity = !res.Backend.res_message;
    target_sql = !sent;
    sql_bytes = (if !sql_bytes < 0 then None else Some !sql_bytes);
    rules_fired = !rules;
    record_bytes = !record_bytes;
    backend_requests = !requests;
    spilled = !spilled;
    engine = delta counters0 (Batch_exec.counters ());
    barrier_wait_s = barrier_wait () -. wait0;
    split = !split;
  }

(* --- pipelines and reference checks ---------------------------------------- *)

let fresh_pipeline (w : Workloads.t) =
  let p = Pipeline.create () in
  (match w.Workloads.sf with
  | Some sf -> ignore (Hyperq_workload.Tpch.setup ~sf p)
  | None -> ());
  List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) w.Workloads.setup;
  p

(* every cell as a SQL literal, row order kept *)
let lit rows = List.map (fun r -> Array.to_list (Array.map Value.to_sql_literal r)) rows

let has_order_by sql =
  let u = String.uppercase_ascii sql in
  let rec find i =
    i + 8 <= String.length u && (String.sub u i 8 = "ORDER BY" || find (i + 1))
  in
  find 0

type checks = { mutable failed : int; mutable reported : int }

let checks () = { failed = 0; reported = 0 }

let fail c fmt =
  Printf.ksprintf
    (fun m ->
      c.failed <- c.failed + 1;
      if c.reported < 20 then begin
        c.reported <- c.reported + 1;
        prerr_endline ("check failed: " ^ m)
      end)
    fmt

let short sql = if String.length sql <= 80 then sql else String.sub sql 0 77 ^ "..."

(* Traced output against [Pipeline.run_sql]: same target SQL, same rows in
   the same order, same activity. *)
let check_against_pipeline c sql (r : result) (o : Pipeline.outcome) =
  if r.target_sql <> o.Pipeline.out_sql then
    fail c "target SQL differs from Pipeline: %s" (short sql)
  else if lit r.rows <> lit o.Pipeline.out_rows then
    fail c "rows differ from Pipeline: %s" (short sql)
  else if r.count <> o.Pipeline.out_count || r.activity <> o.Pipeline.out_activity then
    fail c "activity %s %d differs from Pipeline's %s %d: %s" r.activity r.count
      o.Pipeline.out_activity o.Pipeline.out_count (short sql)

(* TPC-H results against the row interpreter: as a multiset, or in order
   when the query sorts *)
let check_against_oracle c sql (r : result) oracle_rows =
  let a = lit r.rows and b = lit oracle_rows in
  let same = if has_order_by sql then a = b else List.sort compare a = List.sort compare b in
  if not same then fail c "rows differ from the row interpreter: %s" (short sql)

let int_of_value = function
  | Value.Int n -> Int64.to_int n
  | Value.Decimal d -> Int64.to_int (Hyperq_sqlvalue.Decimal.to_int64 d)
  | Value.Null -> 0
  | v -> failwith ("not an integer: " ^ Value.to_string v)

(* (COUNT, SUM) from a staging read *)
let stage_total rows =
  match rows with
  | [ [| c; s |] ] -> Some (int_of_value c, int_of_value s)
  | _ -> None

(* --- the traced run ---------------------------------------------------------- *)

type info = {
  cls : string;
  i_route : route;
  layers : (string * int) list;  (** self time per layer, ns *)
  root : int;  (** root span, ns *)
  i_rows : int;
  bytes : int;
  i_sql_bytes : int option;
  i_split : (float * float * float) option;
}

(* the last statement's self time per layer it touched *)
let layer_self tr =
  List.filter_map
    (fun l -> if tr.seen.(l) > 0 then Some (layer_names.(l), tr.self.(l)) else None)
    (List.init (n_layers - 1) (fun l -> l + 1))

let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let ns_to f d = float_of_int d /. f

(* Runs the workload's session streams in-process, merged by each session's
   accumulated traced time (so a slow session runs less often, as in the
   closed loop), until [budget_s] of traced time is spent. Every statement
   is checked against a second pipeline running [Pipeline.run_sql]; TPC-H
   statements also against the row interpreter. The same statements then
   run again, untraced, on a fresh pipeline for the tracing overhead.
   Returns (statements, failed checks, metrics). *)
let run ~workload ~seed ~budget_s ~spans_out =
  let w = Workloads.make workload ~seed in
  let n = Array.length w.Workloads.streams in
  let a = fresh_pipeline w and b = fresh_pipeline w in
  let sa = Array.init n (fun _ -> Session.create ()) in
  (* same session ids on both sides: HELP SESSION reports it *)
  let sb =
    Array.map
      (fun s -> { (Session.create ()) with Session.session_id = s.Session.session_id })
      sa
  in
  let c = checks () in
  let tr = tracer true in
  let vclock = Array.make n 0 in
  let budget = int_of_float (budget_s *. 1e9) in
  let total = ref 0 and seq = ref [] and infos = ref [] in
  let reference = Hashtbl.create 64 and oracle = Hashtbl.create 32 in
  let hits = ref 0 and rules = ref 0 and requests = ref 0 in
  let spills = ref 0 and barrier = ref 0. and interrupted = ref 0 in
  let engine = Hashtbl.create 8 in
  let committed = ref (0, 0) in
  let evictions0 = (Pipeline.cache_stats a).Plan_cache.evictions in
  while !total < budget do
    let i = ref 0 in
    Array.iteri (fun j v -> if v < vclock.(!i) then i := j) vclock;
    let i = !i in
    let st = w.Workloads.streams.(i).Workloads.next () in
    let sql = st.Workloads.sql in
    seq := (i, sql) :: !seq;
    let r = try Ok (exec tr a sa.(i) sql) with e -> Error e in
    let d = tr.last_root in
    vclock.(i) <- vclock.(i) + max d 1;
    total := !total + d;
    let o =
      let run () = Pipeline.run_sql b ~session:sb.(i) sql in
      try
        Ok
          (if w.Workloads.read_only then (
             match Hashtbl.find_opt reference sql with
             | Some o -> o
             | None ->
                 let o = run () in
                 Hashtbl.replace reference sql o;
                 o)
           else run ())
      with e -> Error e
    in
    match (r, o) with
    | Error e, _ -> fail c "%s: %s" (Printexc.to_string e) (short sql)
    | _, Error e -> fail c "Pipeline: %s: %s" (Printexc.to_string e) (short sql)
    | Ok r, Ok o ->
        check_against_pipeline c sql r o;
        if workload = "tpch_power" then begin
          let rows =
            match Hashtbl.find_opt oracle sql with
            | Some rows -> rows
            | None ->
                b.Pipeline.backend.Backend.exec_mode <- Backend.Row;
                let rows =
                  Fun.protect
                    ~finally:(fun () ->
                      b.Pipeline.backend.Backend.exec_mode <- Backend.Batch)
                    (fun () -> (Pipeline.run_sql b sql).Pipeline.out_rows)
                in
                Hashtbl.replace oracle sql rows;
                rows
          in
          check_against_oracle c sql r rows
        end;
        (* statements run one at a time here, so a staging read must see
           exactly the loader's last commit *)
        (match st.Workloads.total_after with
        | Some t ->
            if r.count = 1 then committed := t
            else fail c "loader statement affected %d rows: %s" r.count (short sql)
        | None -> ());
        if sql = Workloads.stage_read && stage_total r.rows <> Some !committed then
          fail c "staging read differs from the committed total";
        if r.cache_hit then incr hits;
        rules := !rules + r.rules_fired;
        requests := !requests + r.backend_requests;
        if r.spilled then incr spills;
        barrier := !barrier +. r.barrier_wait_s;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace engine k
              (v + Option.value ~default:0 (Hashtbl.find_opt engine k)))
          r.engine;
        let layers = layer_self tr in
        (* layer self-times must add up to the statement's root span, apart
           from interruptions: gaps over 1 us *)
        let g = gaps tr in
        let off_cpu = List.fold_left (fun acc x -> if x > interruption_ns then acc + x else acc) 0 g in
        let glue = List.fold_left (fun acc x -> if x > interruption_ns then acc else acc + x) 0 g in
        if off_cpu > 0 then incr interrupted;
        if float_of_int glue > 0.10 *. float_of_int (d - off_cpu) then
          fail c "layer self-times cover %.1f%% of the root span (%d ns): %s"
            (100. *. float_of_int (d - off_cpu - glue) /. float_of_int (d - off_cpu))
            d (short sql);
        infos :=
          {
            cls = st.Workloads.cls;
            i_route = r.route;
            layers;
            root = d;
            i_rows = List.length r.rows;
            bytes = r.record_bytes;
            i_sql_bytes = r.sql_bytes;
            i_split = r.split;
          }
          :: !infos
  done;
  let evictions = (Pipeline.cache_stats a).Plan_cache.evictions - evictions0 in
  (* the same statements, untraced, from the same starting state *)
  let a2 = fresh_pipeline w in
  let s2 = Array.init n (fun _ -> Session.create ()) in
  let off = tracer false in
  let untraced = ref 0 in
  List.iter
    (fun (i, sql) ->
      let t0 = now () in
      (try ignore (exec off a2 s2.(i) sql) with _ -> ());
      untraced := !untraced + (now () - t0))
    (List.rev !seq);
  write_spans tr spans_out;
  let infos = List.rev !infos in
  let stmts = List.length !seq in
  let self name (i : info) = List.assoc_opt name i.layers in
  let p50_of ?(route = fun _ -> true) name unit_ns =
    percentile 0.5
      (List.filter_map
         (fun i -> if route i then Option.map (ns_to unit_ns) (self name i) else None)
         infos)
  in
  let total_of name =
    List.fold_left
      (fun acc i -> acc + Option.value ~default:0 (self name i))
      0 infos
  in
  let rows = List.fold_left (fun acc i -> acc + i.i_rows) 0 infos in
  let converted_rows =
    List.fold_left
      (fun acc i -> if self "tdf" i <> None then acc + i.i_rows else acc)
      0 infos
  in
  let per_krow name rows = if rows = 0 then 0. else float_of_int (total_of name) /. float_of_int rows in
  let backend_calls =
    List.length (List.filter (fun i -> self "core.pipeline.lock_wait" i <> None) infos)
  in
  let engine_count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt engine k)) in
  (* Figure 9 buckets; an emulated statement is split by the pipeline's own
     stage timings, the rest of its span counted as translation *)
  let sum names = List.fold_left (fun acc n -> acc +. float_of_int (total_of n)) 0. names in
  let em_t, em_e, em_c =
    List.fold_left
      (fun (t, e, cv) i ->
        match (i.i_split, self "core.emulation" i) with
        | Some (st, se, sc), Some d ->
            let d = float_of_int d in
            let se = se *. 1e9 and sc = sc *. 1e9 in
            (t +. Float.max 0. (d -. se -. sc), e +. se, cv +. sc)
        | _ -> (t, e, cv))
      (0., 0., 0.) infos
  in
  let translate =
    em_t +. sum [ "core.plan_cache"; "sqlparser.lex"; "sqlparser.parse"; "binder"; "transform"; "serialize" ]
  and execute = em_e +. sum [ "core.pipeline.lock_wait"; "engine" ]
  and convert = em_c +. sum [ "tdf"; "core.result_converter"; "wire" ] in
  let fig9 x = 100. *. x /. (translate +. execute +. convert) in
  let is r (i : info) = i.i_route = r in
  let on_total = List.fold_left (fun acc i -> acc + i.root) 0 infos in
  let per_query =
    if workload <> "tpch_power" then []
    else
      List.map
        (fun (name, _) ->
          let cls = Printf.sprintf "Q%02d" (int_of_string (String.sub name 1 (String.length name - 1))) in
          ( "engine.execute_ms." ^ cls,
            p50_of ~route:(fun i -> i.cls = cls && is Query i) "engine" 1e6 ))
        Hyperq_workload.Tpch_queries.all
  in
  let metrics =
    [
      ("sqlparser.lex_us", p50_of "sqlparser.lex" 1e3);
      ("sqlparser.parse_us", p50_of "sqlparser.parse" 1e3);
      ("core.plan_cache.hit_ratio", float_of_int !hits /. float_of_int (max 1 stmts));
      ("core.plan_cache.evictions", float_of_int evictions);
      ("binder.bind_us", p50_of "binder" 1e3);
      ("transform.transform_us", p50_of "transform" 1e3);
      ("transform.rules_fired", float_of_int !rules);
      ("serialize.serialize_us", p50_of "serialize" 1e3);
      ( "serialize.sql_bytes",
        percentile 0.5 (List.filter_map (fun i -> Option.map float_of_int i.i_sql_bytes) infos) );
      ("core.emulation.emulate_us", p50_of "core.emulation" 1e3);
      ("core.emulation.backend_requests", float_of_int !requests);
      ("engine.execute_ms", p50_of ~route:(is Query) "engine" 1e6);
      ("engine.dml_us", p50_of ~route:(is Dml) "engine" 1e3);
      ("engine.join_build_rows", engine_count "join_build_rows");
      ("engine.join_probe_rows", engine_count "join_probe_rows");
      ("engine.scan_rows", engine_count "scan_rows");
      ("engine.fallback_ops", engine_count "fallback_ops");
      ("engine.fallback_scalars", engine_count "fallback_scalars");
      ("engine.morsel.barrier_wait_ms", !barrier *. 1e3);
      ("tdf.store_us_per_krow", per_krow "tdf" converted_rows);
      ("core.result_converter.convert_us_per_krow", per_krow "core.result_converter" converted_rows);
      ("tdf.spills", float_of_int !spills);
      ("wire.frame_us_per_krow", per_krow "wire" rows);
      ( "wire.record_bytes_per_row",
        if rows = 0 then 0.
        else float_of_int (List.fold_left (fun acc i -> acc + i.bytes) 0 infos) /. float_of_int rows );
      ( "core.pipeline.lock_wait_ms",
        float_of_int (total_of "core.pipeline.lock_wait") /. 1e6 /. float_of_int (max 1 backend_calls) );
      ("fig9.translate_pct", fig9 translate);
      ("fig9.execute_pct", fig9 execute);
      ("fig9.convert_pct", fig9 convert);
      ( "trace.overhead_pct",
        100. *. float_of_int (on_total - !untraced) /. float_of_int !untraced );
      ("trace.statement_p50_ms", percentile 0.5 (List.map (fun i -> ns_to 1e6 i.root) infos));
      ("trace.statements", float_of_int stmts);
      ("trace.interrupted_statements", float_of_int !interrupted);
    ]
    @ per_query
  in
  (stmts, c.failed, metrics)

(* --- expected activity counts for the wire run ------------------------------- *)

(* The traced path (spans off) on a fresh pipeline answers each distinct
   statement once; the wire run's replies must carry the same activity
   counts. Valid because every statement's count here is independent of
   what ran before it, except the etl_mixed loader's, which the caller
   checks against the loader's own model. *)
let expected_counts (w : Workloads.t) =
  let p = fresh_pipeline w in
  let session = Session.create () in
  let off = tracer false in
  let memo = Hashtbl.create 1024 in
  fun sql ->
    match Hashtbl.find_opt memo sql with
    | Some n -> n
    | None ->
        let n = (exec off p session sql).count in
        Hashtbl.replace memo sql n;
        n
