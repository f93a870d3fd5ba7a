(* A blocking WP-A client for the closed-loop load: logon handshake, one
   statement at a time, logoff. Unlike the library's Wire_client it keeps
   the record payloads so replies can be decoded and checked, and it decodes
   frames in place instead of re-copying its input buffer per frame. *)

module Message = Hyperq_wire.Message
module Record = Hyperq_wire.Record
module Auth = Hyperq_wire.Auth
module Frame_io = Hyperq_net.Frame_io

type t = {
  fd : Unix.file_descr;
  timeout_s : float;
  mutable data : string;
  mutable pos : int;
}

type reply = {
  columns : Message.column list;
  records : string list;  (** WP-A record payloads, in order *)
  n_records : int;
  activity_count : int;
}

exception Wire of string

let send t msg =
  match Frame_io.write_all t.fd ~timeout_s:t.timeout_s (Message.encode_frame msg) with
  | Frame_io.Written -> ()
  | Frame_io.Write_timed_out -> raise (Wire "write timeout")
  | Frame_io.Write_closed m -> raise (Wire ("write failed: " ^ m))

let rec recv t =
  match Message.decode_frame t.data t.pos with
  | Some (msg, next) ->
      t.pos <- next;
      msg
  | None -> (
      match Frame_io.read_chunk t.fd ~timeout_s:t.timeout_s with
      | Frame_io.Data bytes ->
          t.data <- String.sub t.data t.pos (String.length t.data - t.pos) ^ bytes;
          t.pos <- 0;
          recv t
      | Frame_io.Eof -> raise (Wire "connection closed by server")
      | Frame_io.Timed_out -> raise (Wire "read timeout")
      | Frame_io.Interrupted -> raise (Wire "interrupted"))

let connect ?(timeout_s = 120.) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let t = { fd; timeout_s; data = ""; pos = 0 } in
  send t (Message.Logon_request { username = "DBC" });
  (match recv t with
  | Message.Logon_challenge { salt } ->
      send t
        (Message.Logon_auth
           { username = "DBC"; proof = Auth.proof ~salt ~password:"DBC" })
  | m -> raise (Wire ("unexpected logon reply: " ^ Message.to_string m)));
  (match recv t with
  | Message.Logon_response { success = true; _ } -> ()
  | m -> raise (Wire ("logon failed: " ^ Message.to_string m)));
  t

(* [Ok reply] or [Error (code, message)] for a structured Failure parcel;
   a broken stream raises [Wire] *)
let run t sql =
  send t (Message.Run_request { sql });
  let rec collect columns acc n =
    match recv t with
    | Message.Response_header { columns } -> collect columns acc n
    | Message.Records { payload } ->
        collect columns (List.rev_append payload acc) (n + List.length payload)
    | Message.Success { activity_count; _ } ->
        Ok { columns; records = List.rev acc; n_records = n; activity_count }
    | Message.Failure { code; message } -> Error (code, message)
    | m -> raise (Wire ("unexpected parcel: " ^ Message.to_string m))
  in
  collect [] [] 0

let decode_rows (r : reply) =
  let cols =
    List.map
      (fun (c : Message.column) ->
        { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type })
      r.columns
  in
  List.map (Record.decode_row cols) r.records

let close t =
  (try
     send t Message.Logoff;
     ignore (recv t)
   with Wire _ | Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
