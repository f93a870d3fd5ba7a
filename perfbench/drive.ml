(* The closed-loop WP-A load: one thread and one connection per session
   stream (at most two). Each session sends its next statement only after
   the previous reply has arrived. Warm-up statements run first, untimed;
   then all sessions start the timed window together. *)

module W = Workloads

type sample = {
  session : int;
  cls : string;
  kind : W.kind;
  sql : string;
  lat_ns : int64;
  rows : int;  (** result records received *)
  count : int;  (** the reply's activity count *)
  error : string option;
  loader_total : (int * int) option;  (** etl_mixed loader: committed total *)
  stage : (int * int * (int * int) option) option;
      (** etl_mixed staging read: loader commits acknowledged before it was
          sent, loader statements sent by the time it returned, and the
          (COUNT, SUM) it read *)
}

(* committed staging totals: history.(j) is the total after the loader's
   j-th statement; only the loader thread appends *)
type loader_log = {
  mutable history : (int * int) array;
  mutable len : int;
  sent : int Atomic.t;
  acked : int Atomic.t;
}

let log_add log t =
  if log.len = Array.length log.history then
    log.history <- Array.append log.history (Array.make (max 1024 log.len) (0, 0));
  log.history.(log.len) <- t;
  log.len <- log.len + 1

let run_one conn log (st : W.stmt) ~session =
  let loader_j =
    match st.W.total_after with
    | Some t ->
        log_add log t;
        Atomic.set log.sent (log.len - 1);
        Some (log.len - 1)
    | None -> None
  in
  let lo = Atomic.get log.acked in
  let t0 = Monotonic_clock.now () in
  let reply = Wp_client.run conn st.W.sql in
  let lat_ns = Int64.sub (Monotonic_clock.now ()) t0 in
  Option.iter (fun j -> Atomic.set log.acked j) loader_j;
  let base =
    {
      session;
      cls = st.W.cls;
      kind = st.W.kind;
      sql = st.W.sql;
      lat_ns;
      rows = 0;
      count = 0;
      error = None;
      loader_total = st.W.total_after;
      stage = None;
    }
  in
  match reply with
  | Error (code, msg) -> { base with error = Some (Printf.sprintf "failure %d: %s" code msg) }
  | Ok r ->
      let stage =
        if st.W.sql = W.stage_read then
          Some
            ( lo,
              Atomic.get log.sent,
              Traced.stage_total (Wp_client.decode_rows r) )
        else None
      in
      { base with rows = r.Wp_client.n_records; count = r.Wp_client.activity_count; stage }

type outcome = {
  samples : sample list;  (** timed statements, in no particular order *)
  elapsed_s : float;  (** timed window: start until the last reply *)
  failed : int;
  attempted : int;
}

let run ~workload ~seed ~port ~seconds =
  let w = W.make workload ~seed in
  let n = Array.length w.W.streams in
  let log =
    { history = Array.make 1024 (0, 0); len = 1; sent = Atomic.make 0; acked = Atomic.make 0 }
  in
  let conns = Array.init n (fun _ -> Wp_client.connect ~port ()) in
  let m = Mutex.create () and cv = Condition.create () in
  let ready = ref 0 and start = ref 0L in
  let deadline () = Int64.add !start (Int64.of_float (seconds *. 1e9)) in
  let results = Array.make n ([], 0L) and io_errors = Atomic.make 0 in
  let body i =
    let stream = w.W.streams.(i) in
    let acc = ref [] and last = ref 0L in
    (try
       for _ = 1 to stream.W.warmup do
         ignore (run_one conns.(i) log (stream.W.next ()) ~session:i)
       done
     with e ->
       Atomic.incr io_errors;
       prerr_endline ("warm-up: " ^ Printexc.to_string e));
    Mutex.lock m;
    incr ready;
    if !ready = n then begin
      start := Monotonic_clock.now ();
      Condition.broadcast cv
    end
    else
      while !ready < n do
        Condition.wait cv m
      done;
    Mutex.unlock m;
    let stop = deadline () in
    (try
       while Monotonic_clock.now () < stop do
         acc := run_one conns.(i) log (stream.W.next ()) ~session:i :: !acc;
         last := Monotonic_clock.now ()
       done
     with e ->
       Atomic.incr io_errors;
       prerr_endline ("session " ^ string_of_int i ^ ": " ^ Printexc.to_string e));
    results.(i) <- (!acc, !last)
  in
  let threads = Array.init n (fun i -> Thread.create body i) in
  Array.iter Thread.join threads;
  let samples = List.concat_map fst (Array.to_list results) in
  let last = Array.fold_left (fun acc (_, l) -> max acc l) !start results in
  let c = Traced.checks () in
  for _ = 1 to Atomic.get io_errors do
    Traced.fail c "a session stopped on an error"
  done;
  (* the final staging totals must be what the loader committed *)
  if workload = "etl_mixed" then begin
    (match Wp_client.run conns.(0) W.stage_read with
    | Ok r when Traced.stage_total (Wp_client.decode_rows r) = Some log.history.(log.len - 1) -> ()
    | Ok _ -> Traced.fail c "final staging totals differ from what the loader committed"
    | Error (code, msg) -> Traced.fail c "final staging read: failure %d: %s" code msg
    | exception e -> Traced.fail c "final staging read: %s" (Printexc.to_string e));
    (* a read running beside the loader must see one committed state *)
    List.iter
      (fun s ->
        match s.stage with
        | Some (lo, hi, Some t) ->
            let ok = ref false in
            for j = lo to min hi (log.len - 1) do
              if log.history.(j) = t then ok := true
            done;
            if not !ok then
              Traced.fail c "staging read (%d, %d) is no committed total between commits %d and %d"
                (fst t) (snd t) lo hi
        | Some (_, _, None) -> Traced.fail c "staging read returned no single row"
        | None -> ())
      samples
  end;
  Array.iter Wp_client.close conns;
  (* every reply's activity count against the traced path's *)
  let expect = Traced.expected_counts (W.make workload ~seed) in
  List.iter
    (fun s ->
      match s.error with
      | Some e -> Traced.fail c "%s: %s" e (Traced.short s.sql)
      | None ->
          let want = if s.loader_total <> None then 1 else expect s.sql in
          if s.count <> want then
            Traced.fail c "activity count %d, traced run %d: %s" s.count want
              (Traced.short s.sql))
    samples;
  {
    samples;
    elapsed_s = Int64.to_float (Int64.sub last !start) /. 1e9;
    failed = c.Traced.failed;
    attempted = List.length samples;
  }

(* the client's own set-up session: the workload's set-up statements *)
let setup ~workload ~port =
  let w = W.make workload ~seed:0 in
  let conn = Wp_client.connect ~port () in
  let bad = ref 0 in
  List.iter
    (fun sql ->
      match Wp_client.run conn sql with
      | Ok _ -> ()
      | Error (code, msg) ->
          incr bad;
          Printf.eprintf "set-up statement failed (%d: %s): %s\n%!" code msg (Traced.short sql))
    w.W.setup;
  Wp_client.close conn;
  !bad
