(* The three benchmark workloads. Everything here is derived from the seed;
   the server only ever sees the generated SQL text. A workload is a set of
   session streams: each stream is an endless, deterministic sequence of
   statements whose first [warmup] entries are run untimed. The wire run
   and the traced run build their streams from the same seed and so run the
   same statements in the same per-session order. *)

module Tpch_queries = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer
module Sql_date = Hyperq_sqlvalue.Sql_date

type kind = Read | Write

type stmt = {
  sql : string;
  cls : string;  (** statement class: TPC-H query id, template, or role *)
  kind : kind;
  total_after : (int * int) option;
      (** etl_mixed loader: staging (COUNT, SUM) once this statement commits *)
}

type stream = { warmup : int; next : unit -> stmt }

type t = {
  name : string;
  sf : float option;  (** TPC-H scale factor the server loads at start *)
  setup : string list;  (** set-up statements, sent once before the run *)
  streams : stream array;  (** one per session, at most two *)
  read_only : bool;  (** no statement changes what a later one returns *)
}

let names = [ "tpch_power"; "bi_replay"; "etl_mixed" ]
let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- tpch_power ---------------------------------------------------------- *)

(* one untimed pass in query order, then timed passes, each in its own
   seeded permutation *)
let tpch_power ~seed =
  let qs = Array.of_list Tpch_queries.all in
  let n = Array.length qs in
  let stmt i =
    let name, sql = qs.(i) in
    let cls = Printf.sprintf "Q%02d" (int_of_string (String.sub name 1 (String.length name - 1))) in
    { sql; cls; kind = Read; total_after = None }
  in
  let pass = ref 0 and order = ref (Array.init n Fun.id) and pos = ref 0 in
  let next () =
    if !pos = n then begin
      incr pass;
      pos := 0;
      order := Array.init n Fun.id;
      shuffle (rng seed !pass) !order
    end;
    let s = stmt !order.(!pos) in
    incr pos;
    s
  in
  {
    name = "tpch_power";
    sf = Some 0.01;
    setup = [];
    streams = [| { warmup = n; next } |];
    read_only = true;
  }

(* --- bi_replay ------------------------------------------------------------ *)

(* numbers replaced by '#': EXEC TOPUP_3(17, 10.00) -> EXEC TOPUP_#(#, #.#) *)
let template sql =
  let b = Buffer.create (String.length sql) in
  let prev_digit = ref false in
  String.iter
    (fun c ->
      let d = c >= '0' && c <= '9' in
      if d then (if not !prev_digit then Buffer.add_char b '#')
      else Buffer.add_char b c;
      prev_digit := d)
    sql;
  Buffer.contents b

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let bi_corpus () =
  let wls = Customer.all () in
  let setup = List.concat_map (fun w -> w.Customer.wl_setup) wls in
  let distinct =
    Array.of_list (List.concat_map (fun w -> List.map fst w.Customer.wl_queries) wls)
  in
  (setup, distinct)

(* One session: with two, server worker threads handing the one OCaml
   runtime lock back and forth made throughput and tail latency bimodal
   from run to run, which swamped the translation costs this workload is
   for. Concurrency is etl_mixed's subject. *)
let bi_sessions = 1
let zipf_s = 1.0

(* Zipf(s) over ranks 1..n: cumulative weights, sampled by bisection *)
let zipf_cdf n =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** zipf_s));
    c.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let zipf_draw cdf st =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* A rank order permuted from the seed in which every stretch of ranks
   holds the corpus's templates in their corpus proportions: each template's
   statements are shuffled and spread evenly over the whole order. Which
   template sits at which rank is the same under every seed, so the hot set
   has the same make-up; the seed picks which statements of each template
   are hot. *)
let stratified_ranks st distinct =
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun q ->
      let t = template q in
      Hashtbl.replace groups t (q :: Option.value ~default:[] (Hashtbl.find_opt groups t)))
    distinct;
  let keyed =
    Hashtbl.fold
      (fun t qs acc ->
        let a = Array.of_list qs in
        shuffle st a;
        let n = float_of_int (Array.length a) in
        Array.to_list (Array.mapi (fun k q -> ((float_of_int k +. 0.5) /. n, t, q)) a) @ acc)
      groups []
  in
  Array.of_list (List.map (fun (_, _, q) -> q) (List.sort compare keyed))

let bi_replay ~seed =
  let setup, distinct = bi_corpus () in
  (* a SET table ignores a repeated row, so the first INSERT of a row
     answers 1 and every later one 0; running them once during set-up makes
     every reply's count independent of what ran before it *)
  let set_tables =
    List.filter_map
      (fun s ->
        let p = "CREATE SET TABLE " in
        if starts_with ~prefix:p s then
          let rest = String.sub s (String.length p) (String.length s - String.length p) in
          Some (List.hd (String.split_on_char ' ' rest))
        else None)
      setup
  in
  let primes =
    List.filter
      (fun q -> List.exists (fun t -> starts_with ~prefix:("INSERT INTO " ^ t ^ " ") q) set_tables)
      (Array.to_list distinct)
  in
  let ranked = stratified_ranks (rng seed 7) distinct in
  let cdf = zipf_cdf (Array.length ranked) in
  let stream i =
    let st = rng seed (100 + i) in
    let next () =
      let sql = ranked.(zipf_draw cdf st) in
      let kind =
        if List.exists (fun p -> starts_with ~prefix:p sql) [ "INSERT "; "UPDATE "; "UPD "; "DELETE " ]
        then Write
        else Read
      in
      { sql; cls = template sql; kind; total_after = None }
    in
    { warmup = 2000; next }
  in
  {
    name = "bi_replay";
    sf = None;
    setup = setup @ primes;
    streams = Array.init bi_sessions stream;
    read_only = false;
  }

(* --- etl_mixed ------------------------------------------------------------ *)

let stage_ddl =
  "CREATE MULTISET TABLE STAGE_ORDERS (ID INTEGER NOT NULL, O_KEY INTEGER, \
   AMOUNT INTEGER)"

let stage_read = "SELECT COUNT(*), SUM(AMOUNT) FROM STAGE_ORDERS"
let extract_days = 90

(* The loader owns STAGE_ORDERS: single-row INSERTs, an UPDATE every 10th
   statement and a DELETE every 10th (offset by 5), each on a live row.
   It tracks the committed (COUNT, SUM) so readers can be checked. *)
let loader ~seed =
  let st = rng seed 200 in
  let live = ref [||] and n_live = ref 0 in
  let amounts = Hashtbl.create 4096 in
  let next_id = ref 0 and i = ref 0 and count = ref 0 and sum = ref 0 in
  let push id =
    if !n_live = Array.length !live then
      live := Array.append !live (Array.make (max 1024 !n_live) 0);
    !live.(!n_live) <- id;
    incr n_live
  in
  let pick () = Random.State.int st !n_live in
  let next () =
    let r = !i mod 10 in
    incr i;
    let sql, cls =
      if r = 4 && !n_live > 0 then begin
        let id = !live.(pick ()) in
        let d = 1 + Random.State.int st 9 in
        Hashtbl.replace amounts id (Hashtbl.find amounts id + d);
        sum := !sum + d;
        (Printf.sprintf "UPDATE STAGE_ORDERS SET AMOUNT = AMOUNT + %d WHERE ID = %d" d id, "update")
      end
      else if r = 9 && !n_live > 0 then begin
        let k = pick () in
        let id = !live.(k) in
        !live.(k) <- !live.(!n_live - 1);
        decr n_live;
        sum := !sum - Hashtbl.find amounts id;
        Hashtbl.remove amounts id;
        decr count;
        (Printf.sprintf "DELETE FROM STAGE_ORDERS WHERE ID = %d" id, "delete")
      end
      else begin
        incr next_id;
        let id = !next_id in
        let amount = 1 + Random.State.int st 10_000 in
        Hashtbl.replace amounts id amount;
        push id;
        incr count;
        sum := !sum + amount;
        ( Printf.sprintf
            "INSERT INTO STAGE_ORDERS (ID, O_KEY, AMOUNT) VALUES (%d, %d, %d)" id
            (1 + Random.State.int st 60_000)
            amount,
          "insert" )
      end
    in
    { sql; cls; kind = Write; total_after = Some (!count, !sum) }
  in
  { warmup = 500; next }

(* The extractor alternates a ~2k-row LINEITEM ship-date window with a read
   of the staging totals. Window starts come from a pool of 64 seeded days. *)
let extract_windows = 64

let extractor ~seed =
  let st = rng seed 300 in
  let base = Sql_date.make ~year:1992 ~month:1 ~day:1 in
  let starts = Array.init extract_windows (fun _ -> Random.State.int st 2400) in
  let i = ref 0 in
  let next () =
    incr i;
    if !i mod 2 = 1 then
      let d0 = Sql_date.add_days base starts.(Random.State.int st extract_windows) in
      let d1 = Sql_date.add_days d0 (extract_days - 1) in
      {
        sql =
          Printf.sprintf
            "SELECT L_ORDERKEY, L_LINENUMBER, L_QUANTITY, L_EXTENDEDPRICE, \
             L_DISCOUNT, L_SHIPDATE FROM LINEITEM WHERE L_SHIPDATE BETWEEN \
             DATE '%s' AND DATE '%s'"
            (Sql_date.to_string d0) (Sql_date.to_string d1);
        cls = "extract";
        kind = Read;
        total_after = None;
      }
    else { sql = stage_read; cls = "stage_read"; kind = Read; total_after = None }
  in
  { warmup = 4; next }

let etl_mixed ~seed =
  {
    name = "etl_mixed";
    sf = Some 0.01;
    setup = [ stage_ddl ];
    streams = [| loader ~seed; extractor ~seed |];
    read_only = false;
  }

let make name ~seed =
  match name with
  | "tpch_power" -> tpch_power ~seed
  | "bi_replay" -> bi_replay ~seed
  | "etl_mixed" -> etl_mixed ~seed
  | w -> invalid_arg ("unknown workload " ^ w)
