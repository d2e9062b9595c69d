#!/bin/sh
# Runs a command that must fail as a usage error: it passes when the
# command exits with status 2 and its stderr contains MESSAGE.
#
#   sh tests/expect_usage_error.sh MESSAGE COMMAND [ARGS...]
msg=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$err"
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got $status" >&2
  exit 1
fi
case $err in
  *"$msg"*) exit 0 ;;
esac
echo "stderr lacks the expected message: $msg" >&2
exit 1
