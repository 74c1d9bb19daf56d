"""TLS and token-authentication layer for the Gamma evaluation service.

The federation transports ship :class:`~repro.service.protocol.GammaBatch`
frames over sockets; across trust boundaries that channel must be both
encrypted and authenticated before the server decodes anything a peer
sent.  This module centralises the pieces:

* **TLS contexts** -- :func:`build_server_ssl_context` (server cert +
  optional client-certificate verification) and
  :func:`build_client_ssl_context` (CA pinning for self-signed deploys,
  optional client cert).  Both are thin wrappers over the stdlib
  :mod:`ssl` module so no third-party dependency is introduced.
* **The token handshake** -- a fixed-format *raw* preamble (magic bytes,
  2-byte length, token) exchanged immediately after the TLS handshake
  and **before any frame is decoded**: the server validates the token
  with a constant-time compare against its policy table and closes the
  connection on mismatch, so unauthenticated peers never reach the
  frame decoder.  The reply is a fixed 4-byte status
  (:data:`AUTH_OK` / :data:`AUTH_REJECT`), never a protocol frame.
* **The tenant policy table** -- :class:`TenantPolicy` /
  :class:`PolicyTable` map tokens to tenant identities and carry the
  per-tenant scheduling weight and queue quota that the server's
  deficit-round-robin scheduler enforces.
* **Dev/CI certificate provisioning** --
  :func:`generate_self_signed_cert` shells out to the ``openssl`` CLI
  (present wherever python's own :mod:`ssl` is) so ``make test-tls`` and
  the TLS test fixtures can mint ephemeral certificates in a tmpdir.

Authentication failures are surfaced as
:class:`~repro.errors.ServiceAuthError` and always fail closed: there is
no fallback to unauthenticated service.
"""

from __future__ import annotations

import hmac
import json
import pathlib
import shutil
import socket
import ssl
import struct
import subprocess
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ServiceAuthError

__all__ = [
    "AUTH_MAGIC",
    "AUTH_OK",
    "AUTH_REJECT",
    "MAX_TOKEN_BYTES",
    "DEFAULT_HANDSHAKE_TIMEOUT",
    "TenantPolicy",
    "PolicyTable",
    "send_token",
    "read_token_preamble",
    "send_auth_reply",
    "expect_auth_reply",
    "build_server_ssl_context",
    "build_client_ssl_context",
    "generate_self_signed_cert",
]

# ---------------------------------------------------------------------- #
# Handshake wire format
# ---------------------------------------------------------------------- #
#: Magic opening the token preamble.  Deliberately not a valid protocol
#: frame: parsed as a frame header its first four bytes decode to a
#: length far beyond MAX_FRAME_BYTES, so a token sent to a server that
#: does not expect one is dropped instead of half-interpreted.
AUTH_MAGIC = b"GTOK1"
#: Fixed 4-byte handshake replies (raw bytes, not frames -- the client
#: must not have to decode a frame before knowing it is authenticated).
AUTH_OK = b"GOK!"
AUTH_REJECT = b"GNO!"
#: Upper bound on the UTF-8 token length; anything longer is rejected
#: before being read.
MAX_TOKEN_BYTES = 512
#: How long either side waits for its peer's half of the handshake
#: before failing closed.  Bounded so an idle or truncated preamble
#: cannot pin a server connection thread.
DEFAULT_HANDSHAKE_TIMEOUT = 5.0

_TOKEN_LEN = struct.Struct(">H")


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``sock``, or ``None`` on EOF mid-read."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_token(sock: socket.socket, token: str) -> None:
    """Write the client half of the token handshake to ``sock``."""
    encoded = token.encode("utf-8")
    if not encoded or len(encoded) > MAX_TOKEN_BYTES:
        raise ServiceAuthError(
            f"auth token must be 1..{MAX_TOKEN_BYTES} UTF-8 bytes, "
            f"got {len(encoded)}"
        )
    sock.sendall(AUTH_MAGIC + _TOKEN_LEN.pack(len(encoded)) + encoded)


def expect_auth_reply(sock: socket.socket) -> None:
    """Read the server's 4-byte handshake status; raise unless accepted."""
    try:
        reply = _recv_exact(sock, len(AUTH_OK))
    except (OSError, ValueError) as exc:
        raise ServiceAuthError(f"connection lost during auth handshake: {exc}") from exc
    if reply is None:
        raise ServiceAuthError(
            "server closed the connection during the auth handshake "
            "(token rejected, or the server does not expect a token)"
        )
    if reply != AUTH_OK:
        raise ServiceAuthError("server rejected the authentication token")


def read_token_preamble(sock: socket.socket) -> bytes | None:
    """Server side: the peer's token bytes, or ``None`` when the peer
    did not open with :data:`AUTH_MAGIC` or truncated the preamble.

    Reads nothing beyond the fixed-format preamble and never decodes a
    frame, so this is safe to run against an untrusted peer.
    """
    try:
        magic = _recv_exact(sock, len(AUTH_MAGIC))
        if magic != AUTH_MAGIC:
            return None
        header = _recv_exact(sock, _TOKEN_LEN.size)
        if header is None:
            return None
        (length,) = _TOKEN_LEN.unpack(header)
        if not 0 < length <= MAX_TOKEN_BYTES:
            return None
        return _recv_exact(sock, length)
    except (OSError, ValueError):
        return None


def send_auth_reply(sock: socket.socket, accepted: bool) -> None:
    """Write the server's 4-byte handshake status to ``sock``."""
    sock.sendall(AUTH_OK if accepted else AUTH_REJECT)


# ---------------------------------------------------------------------- #
# Tenant policy table
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's identity, credential, and scheduling policy.

    ``weight`` scales the tenant's deficit-round-robin quantum (a
    weight-4 tenant accrues 4x the dispatch credit per scheduler round
    of a weight-1 tenant); ``max_queue_depth`` bounds its pending queue
    (``None`` inherits the server default).
    """

    name: str
    token: str | None = None
    weight: float = 1.0
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.weight > 0.0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight!r}")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 when set")


class PolicyTable:
    """Server-side table of tenant policies keyed by token and by name.

    When any tenant carries a token the table *requires* authentication:
    every connection must complete the token handshake before its first
    frame is decoded.  A table without tokens (including the empty
    default) leaves the server open, matching the pre-TLS behaviour for
    loopback/dev deployments.
    """

    def __init__(self, tenants: Iterable[TenantPolicy] = ()) -> None:
        self._by_name: dict[str, TenantPolicy] = {}
        for tenant in tenants:
            if tenant.name in self._by_name:
                raise ValueError(f"duplicate tenant name {tenant.name!r}")
            self._by_name[tenant.name] = tenant
        tokens = [t.token for t in self._by_name.values() if t.token]
        if len(tokens) != len(set(tokens)):
            raise ValueError("tenant tokens must be unique")

    @property
    def tenants(self) -> tuple[TenantPolicy, ...]:
        return tuple(self._by_name.values())

    @property
    def requires_auth(self) -> bool:
        return any(tenant.token for tenant in self._by_name.values())

    def authenticate(self, token: bytes | None) -> TenantPolicy | None:
        """The tenant owning ``token``, or ``None``.

        Compares against *every* configured token with
        :func:`hmac.compare_digest` and no early exit, so response
        timing leaks neither whether a token prefix matched nor which
        tenant it belonged to.
        """
        if token is None:
            return None
        matched: TenantPolicy | None = None
        for tenant in self._by_name.values():
            if tenant.token is None:
                continue
            if hmac.compare_digest(tenant.token.encode("utf-8"), token):
                matched = tenant
        return matched

    def for_tenant(self, name: str) -> TenantPolicy:
        """The named tenant's policy, or a default-weight policy."""
        policy = self._by_name.get(name)
        return policy if policy is not None else TenantPolicy(name=name)

    @classmethod
    def single_token(cls, token: str, name: str = "default") -> "PolicyTable":
        """A one-tenant table -- the ``--auth-token`` CLI convenience."""
        return cls([TenantPolicy(name=name, token=token)])

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "PolicyTable":
        """Build from the policy-file shape::

            {"tenants": {"alice": {"token": "...", "weight": 4,
                                   "max_queue_depth": 64}, ...}}

        (A bare ``{name: {...}}`` mapping without the ``"tenants"`` key
        is accepted too.)
        """
        entries = mapping.get("tenants", mapping)
        if not isinstance(entries, Mapping):
            raise ValueError("policy 'tenants' must be a mapping of name -> policy")
        tenants = []
        for name, spec in entries.items():
            spec = dict(spec or {})
            unknown = set(spec) - {"token", "weight", "max_queue_depth"}
            if unknown:
                raise ValueError(
                    f"unknown policy keys for tenant {name!r}: {sorted(unknown)}"
                )
            depth = spec.get("max_queue_depth")
            tenants.append(
                TenantPolicy(
                    name=str(name),
                    token=spec.get("token"),
                    weight=float(spec.get("weight", 1.0)),
                    max_queue_depth=None if depth is None else int(depth),
                )
            )
        return cls(tenants)

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "PolicyTable":
        """Load a JSON policy file (see :meth:`from_mapping`)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_mapping(json.load(handle))


# ---------------------------------------------------------------------- #
# TLS contexts
# ---------------------------------------------------------------------- #
def build_server_ssl_context(
    certfile: str | pathlib.Path,
    keyfile: str | pathlib.Path,
    *,
    client_ca: str | pathlib.Path | None = None,
) -> ssl.SSLContext:
    """A server-side TLS context for :class:`~repro.service.server.GammaServer`.

    ``client_ca`` switches on mutual TLS: peers must present a
    certificate signed by that CA or the handshake fails.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.load_cert_chain(str(certfile), str(keyfile))
    if client_ca is not None:
        context.load_verify_locations(str(client_ca))
        context.verify_mode = ssl.CERT_REQUIRED
    return context


def build_client_ssl_context(
    cafile: str | pathlib.Path | None = None,
    *,
    certfile: str | pathlib.Path | None = None,
    keyfile: str | pathlib.Path | None = None,
    check_hostname: bool = True,
) -> ssl.SSLContext:
    """A client-side TLS context for ``tls://`` endpoints.

    With no ``cafile`` the system trust store applies (an internet-CA
    deployment); self-signed deployments pass the server certificate
    itself (or its CA) to pin it.  Server certificate verification is
    always on -- there is deliberately no "insecure" switch, matching
    the fail-closed contract of the auth layer.  ``certfile``/``keyfile``
    present a client certificate for servers running mutual TLS.
    """
    context = ssl.create_default_context(cafile=None if cafile is None else str(cafile))
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.check_hostname = check_hostname
    if certfile is not None:
        context.load_cert_chain(str(certfile), str(keyfile) if keyfile else None)
    return context


# ---------------------------------------------------------------------- #
# Dev/CI certificate provisioning
# ---------------------------------------------------------------------- #
def generate_self_signed_cert(
    directory: str | pathlib.Path,
    *,
    common_name: str = "localhost",
    days: int = 1,
    expired: bool = False,
    stem: str = "repro",
) -> tuple[pathlib.Path, pathlib.Path]:
    """Mint an ephemeral self-signed server certificate into ``directory``.

    Returns ``(cert_path, key_path)``.  Uses the ``openssl`` CLI (an EC
    P-256 key, so generation is fast enough for per-test fixtures) with
    SANs for ``common_name``, ``localhost`` and ``127.0.0.1`` so client
    hostname verification passes against loopback deployments.
    ``expired=True`` back-dates the validity window into the past -- the
    fixture behind the expired-certificate failure-mode test.  Raises
    :class:`RuntimeError` when no ``openssl`` binary is available.
    """
    openssl = shutil.which("openssl")
    if openssl is None:
        raise RuntimeError(
            "generate_self_signed_cert needs the `openssl` CLI; "
            "provision certificates externally on hosts without it"
        )
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cert_path = directory / f"{stem}-cert.pem"
    key_path = directory / f"{stem}-key.pem"
    san = {f"DNS:{common_name}", "DNS:localhost", "IP:127.0.0.1"}
    command = [
        openssl,
        "req",
        "-x509",
        "-newkey",
        "ec",
        "-pkeyopt",
        "ec_paramgen_curve:prime256v1",
        "-nodes",
        "-keyout",
        str(key_path),
        "-out",
        str(cert_path),
        "-subj",
        f"/CN={common_name}",
        "-addext",
        f"subjectAltName={','.join(sorted(san))}",
    ]
    if expired:
        command += ["-not_before", "20200101000000Z", "-not_after", "20200102000000Z"]
    else:
        command += ["-days", str(days)]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=60, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"openssl certificate generation failed: {completed.stderr.strip()}"
        )
    return cert_path, key_path
